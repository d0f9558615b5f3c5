package main

import (
	"encoding/json"
	"math/rand"
	"net/http"
	"net/url"
	"sort"
	"strings"

	"repro/internal/db"
	"repro/internal/pao"
)

type opKind uint8

const (
	opRead   opKind = iota // GET /v1/access?inst=
	opBatch                // POST /v1/access/batch of row-adjacent instances
	opECO                  // POST /v1/eco with one swap
	opScrape               // GET /metrics
)

var opNames = [...]string{"read", "batch", "eco", "scrape"}

// The serve op mix: one ECO swap every ecoEvery ops, a /metrics scrape every
// scrapeEvery ops, a batch of batchSize row-adjacent instances with
// probability batchPermille/1000, and single-instance reads for the rest.
const (
	ecoEvery      = 20000
	scrapeEvery   = 5000
	batchPermille = 5
	batchSize     = 64
)

// op is one entry of a serve op list. arg indexes opList.names for reads,
// opList.rowOrder for the first instance of a batch, and opList.swaps for
// ECOs.
type op struct {
	kind opKind
	arg  int32
}

// opList is the seeded, fixed-length op sequence the serve clients replay.
type opList struct {
	ops      []op
	names    []string    // instance names, design order
	rowOrder []string    // CORE instance names sorted by row, then x
	swaps    [][2]string // disjoint equal-width instance pairs
}

// genOps builds n ops against design d, with an ECO every eco ops (ecoEvery
// in the serve phase). The ECO swaps pair instances of equal width, so a swap
// keeps the placement legal, and no instance is in two swaps, so swaps
// commute: however the two clients interleave them, the final design is the
// same.
func genOps(d *db.Design, seed int64, n, eco int) *opList {
	rng := rand.New(rand.NewSource(seed))
	l := &opList{}
	var core []*db.Instance
	for _, inst := range d.Instances {
		l.names = append(l.names, inst.Name)
		if inst.Master.Class == db.ClassCore {
			core = append(core, inst)
		}
	}
	sort.SliceStable(core, func(a, b int) bool {
		if core[a].Pos.Y != core[b].Pos.Y {
			return core[a].Pos.Y < core[b].Pos.Y
		}
		return core[a].Pos.X < core[b].Pos.X
	})
	for _, inst := range core {
		l.rowOrder = append(l.rowOrder, inst.Name)
	}
	used := make(map[int]bool)
	nextSwap := func() int32 {
		for {
			a := core[rng.Intn(len(core))]
			b := core[rng.Intn(len(core))]
			if a == b || used[a.ID] || used[b.ID] || a.Master.Size.X != b.Master.Size.X {
				continue
			}
			used[a.ID], used[b.ID] = true, true
			l.swaps = append(l.swaps, [2]string{a.Name, b.Name})
			return int32(len(l.swaps) - 1)
		}
	}
	l.ops = make([]op, n)
	for i := range l.ops {
		switch {
		case i%eco == eco/2:
			l.ops[i] = op{opECO, nextSwap()}
		case i%scrapeEvery == scrapeEvery-1:
			l.ops[i] = op{opScrape, 0}
		case rng.Intn(1000) < batchPermille:
			l.ops[i] = op{opBatch, int32(rng.Intn(len(l.rowOrder) - batchSize + 1))}
		default:
			l.ops[i] = op{opRead, int32(rng.Intn(len(l.names)))}
		}
	}
	return l
}

// ecoOps returns every swap of the list as engine ops, for the fresh twin the
// final served state is compared against.
func (l *opList) ecoOps() []pao.ECOOp {
	out := make([]pao.ECOOp, len(l.swaps))
	for i, s := range l.swaps {
		out[i] = pao.ECOOp{Kind: pao.ECOSwap, Inst: s[0], Other: s[1]}
	}
	return out
}

// request builds the HTTP request for op o.
func (l *opList) request(o op) *http.Request {
	switch o.kind {
	case opBatch:
		body, _ := json.Marshal(map[string][]string{
			"instances": l.rowOrder[o.arg : int(o.arg)+batchSize],
		})
		return newRequest(http.MethodPost, "/v1/access/batch", string(body))
	case opECO:
		s := l.swaps[o.arg]
		body, _ := json.Marshal(map[string]any{
			"ops": []map[string]string{{"op": "swap", "inst": s[0], "other": s[1]}},
		})
		return newRequest(http.MethodPost, "/v1/eco", string(body))
	case opScrape:
		return newRequest(http.MethodGet, "/metrics", "")
	default:
		return newRequest(http.MethodGet, "/v1/access?inst="+url.QueryEscape(l.names[o.arg]), "")
	}
}

// newRequest builds an in-process request; the clients build it before
// starting the clock.
func newRequest(method, target, body string) *http.Request {
	req, err := http.NewRequest(method, target, strings.NewReader(body))
	if err != nil {
		panic(err) // targets are built above from design names; a bug
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	return req
}

// sink is a ResponseWriter that keeps the status and drops the body (unless
// keep is set), so the benchmark times the handler, not a recorder's buffer.
type sink struct {
	h    http.Header
	code int
	body []byte
	keep bool
}

func (s *sink) reset(keep bool) {
	if s.h == nil {
		s.h = make(http.Header)
	}
	clear(s.h)
	s.code, s.body, s.keep = 0, s.body[:0], keep
}

func (s *sink) Header() http.Header { return s.h }

func (s *sink) WriteHeader(code int) {
	if s.code == 0 {
		s.code = code
	}
}

func (s *sink) Write(p []byte) (int, error) {
	if s.code == 0 {
		s.code = http.StatusOK
	}
	if s.keep {
		s.body = append(s.body, p...)
	}
	return len(p), nil
}
