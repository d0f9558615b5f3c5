package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/db"
	"repro/internal/def"
	"repro/internal/lef"
	"repro/internal/pao"
)

// span is one traced call into a layer. Spans nest through parent; a span's
// self time is its duration minus the time its children cover.
type span struct {
	name          string
	parent        *span
	start         time.Time
	dur, children time.Duration
	allocs        uint64
	m0            runtime.MemStats
}

// tracer records spans in memory around the benchmark's calls into the
// program, reading allocation counts from runtime.MemStats deltas.
type tracer struct {
	spans []*span
	cur   *span
}

func (t *tracer) begin(name string) *span {
	s := &span{name: name, parent: t.cur}
	runtime.ReadMemStats(&s.m0)
	t.cur = s
	s.start = time.Now()
	return s
}

func (t *tracer) end(s *span) {
	s.dur = time.Since(s.start)
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	s.allocs = m1.Mallocs - s.m0.Mallocs
	if s.parent != nil {
		s.parent.children += s.dur
	}
	t.cur = s.parent
	t.spans = append(t.spans, s)
}

// selfMS is the median self time of the named spans in ms.
func (t *tracer) selfMS(name string) float64 {
	var xs []float64
	for _, s := range t.spans {
		if s.name == name {
			xs = append(xs, (s.dur-s.children).Seconds()*1e3)
		}
	}
	return median(xs)
}

// allocs is the median allocation count per call of the named spans.
func (t *tracer) allocs(name string) float64 {
	var xs []float64
	for _, s := range t.spans {
		if s.name == name {
			xs = append(xs, float64(s.allocs))
		}
	}
	return median(xs)
}

// dump writes one line per span name (calls, median self time, median
// allocations) to standard error when the run ends.
func (t *tracer) dump() {
	seen := map[string]int{}
	var names []string
	for _, s := range t.spans {
		if seen[s.name] == 0 {
			names = append(names, s.name)
		}
		seen[s.name]++
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "perfbench: span %-22s calls=%-4d self_ms=%.3f allocs=%.0f\n",
			n, seen[n], t.selfMS(n), t.allocs(n))
	}
}

// Traced sample sizes. A serve round times tracedBlocks pairs of
// tracedBlock-read blocks, tracedBatches batches and tracedScrapes scrapes,
// then replays tracedReplayOps ops of the serve mix (one ECO).
const (
	tracedBlock     = 1000
	tracedBlocks    = 5
	tracedBatches   = 40
	tracedScrapes   = 10
	tracedReplayOps = ecoEvery
	tracedECOs      = 3
	tracedLookups   = 200000
)

// runTraced is the traced run: the batch pipeline rebuilt from public layer
// calls with a span around each, then the ECO, lookup and serve layers.
func runTraced(ctx context.Context, in *inputs, ref string, budget time.Duration, t *tally) (map[string]metric, error) {
	tr := &tracer{}
	m := map[string]metric{}
	start := time.Now()
	share := time.Duration(float64(budget) * in.w.batchShare)
	var untraced, traced []float64
	var d *db.Design
	var a *pao.Analyzer
	var res *pao.Result
	for i := 0; i < 2 || time.Since(start) < share; i++ {
		// The production path, untraced, as the digest and overhead baseline.
		runtime.GC()
		t0 := time.Now()
		dRun, _, resRun, err := in.flow(ctx)
		untraced = append(untraced, time.Since(t0).Seconds())
		if err != nil {
			return nil, err
		}
		t.check("RunContext flow", checkResult(dRun, resRun, ref))

		runtime.GC()
		t0 = time.Now()
		d, a, res, err = composeTraced(ctx, in, tr, m)
		traced = append(traced, time.Since(t0).Seconds())
		if err != nil {
			return nil, err
		}
		// Equal digests mean each span measured the real pipeline.
		t.check("traced composition", checkResult(d, res, ref))
		rerun, err := cacheCounters(ctx, a, m)
		if err != nil {
			return nil, err
		}
		t.check("traced rerun", checkResult(d, rerun, ref))
		decoded, err := snapshotLayer(d, res, tr, m)
		if err != nil {
			return nil, err
		}
		t.check("decoded snapshot", checkResult(d, decoded, ref))
	}
	m["trace.overhead_ms"] = metric{(median(traced) - median(untraced)) * 1e3, "ms"}
	for _, n := range []string{"lef.parse", "def.parse", "db.unique", "pao.step12", "drc.globalengine",
		"pao.step3", "pao.failedpins", "pao.snapshot.encode", "pao.snapshot.decode"} {
		m[n+"_ms"] = metric{tr.selfMS(n), "ms"}
	}
	for _, n := range []string{"def.parse", "pao.step12", "drc.globalengine", "pao.step3", "pao.failedpins"} {
		m[n+"_allocs"] = metric{tr.allocs(n), "count"}
	}

	m["pao.lookup_ns"] = metric{lookupNS(d, res, in.seed), "ns"}
	if err := serveLayers(ctx, in, d, res, start.Add(budget), m, t); err != nil {
		return nil, err
	}
	if err := ecoLayer(a, res, in.seed, tr, m); err != nil {
		return nil, err
	}
	tr.dump()
	return m, nil
}

// composeTraced runs the pipeline as the distributed flow composes it
// (pao/partial.go): AnalyzeClasses over every class, GlobalEngine,
// SelectPatterns, CountFailedPins — each call in its own span.
func composeTraced(ctx context.Context, in *inputs, tr *tracer, m map[string]metric) (*db.Design, *pao.Analyzer, *pao.Result, error) {
	root := tr.begin("flow")
	defer tr.end(root)
	sp := tr.begin("lef.parse")
	lib, err := lef.Parse(bytes.NewReader(in.lef))
	tr.end(sp)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("parse LEF: %w", err)
	}
	sp = tr.begin("def.parse")
	d, err := def.Parse(bytes.NewReader(in.def), lib.Tech, lib.Masters)
	tr.end(sp)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("parse DEF: %w", err)
	}
	sp = tr.begin("db.unique")
	uis := d.UniqueInstances()
	tr.end(sp)
	m["db.classes"] = metric{float64(len(uis)), "count"}
	m["db.clusters"] = metric{float64(len(d.Clusters())), "count"}
	sigs := make([]string, len(uis))
	for i, ui := range uis {
		sigs[i] = ui.Signature()
	}

	a := pao.NewAnalyzer(d, analysisConfig())
	sp = tr.begin("pao.step12")
	res, err := a.AnalyzeClasses(ctx, sigs)
	tr.end(sp)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("AnalyzeClasses: %w", err)
	}
	sp = tr.begin("drc.globalengine")
	eng := a.GlobalEngine()
	tr.end(sp)
	sp = tr.begin("pao.step3")
	a.SelectPatterns(res, eng)
	tr.end(sp)
	sp = tr.begin("pao.failedpins")
	a.CountFailedPins(res, eng)
	tr.end(sp)
	return d, a, res, nil
}

// cacheCounters records the fresh run's DRC and memo-cache counters, then
// reruns the analyzer, records the rerun's via-cache misses separately, and
// returns the rerun's result.
func cacheCounters(ctx context.Context, a *pao.Analyzer, m map[string]metric) (*pao.Result, error) {
	live := a.LiveCounters()
	fresh := a.CacheStats()
	m["drc.query.count"] = metric{float64(live["drc.query.count"]), "count"}
	m["drc.via.attempted"] = metric{float64(live["drc.via.attempted"]), "count"}
	m["drc.viacache.hit_ratio"] = metric{fresh.ViaHitRate(), "ratio"}
	m["drc.viacache.wholesale"] = metric{float64(fresh.ViaEvictWholesale), "count"}
	m["pao.paircache.hit_ratio"] = metric{fresh.PairHitRate(), "ratio"}
	res, err := a.RunContext(ctx)
	if err != nil {
		return nil, fmt.Errorf("rerun: %w", err)
	}
	after := a.CacheStats()
	hits, misses := after.ViaHits-fresh.ViaHits, after.ViaMisses-fresh.ViaMisses
	m["drc.viacache.rerun_miss"] = metric{float64(misses), "count"}
	ratio := 0.0
	if hits+misses > 0 {
		ratio = float64(hits) / float64(hits+misses)
	}
	m["drc.viacache.rerun_hit_ratio"] = metric{ratio, "ratio"}
	return res, nil
}

// snapshotLayer times one snapshot encode and decode (the serve warm restart
// and the distributed payload codec), records the encoded size, and returns
// the decoded result.
func snapshotLayer(d *db.Design, res *pao.Result, tr *tracer, m map[string]metric) (*pao.Result, error) {
	var buf bytes.Buffer
	sp := tr.begin("pao.snapshot.encode")
	err := pao.EncodeSnapshot(&buf, d, analysisConfig(), res)
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("encode snapshot: %w", err)
	}
	m["pao.snapshot_kb"] = metric{float64(buf.Len()) / 1024, "KB"}
	sp = tr.begin("pao.snapshot.decode")
	decoded, err := pao.DecodeSnapshot(bytes.NewReader(buf.Bytes()), d, analysisConfig())
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("decode snapshot: %w", err)
	}
	return decoded, nil
}

// lookupNS times Result.PatternFor plus AccessPointFor for every signal pin
// of seeded random instances, per instance looked up.
func lookupNS(d *db.Design, res *pao.Result, seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	insts := make([]*db.Instance, tracedLookups)
	for i := range insts {
		insts[i] = d.Instances[rng.Intn(len(d.Instances))]
	}
	found := 0
	t0 := time.Now()
	for _, inst := range insts {
		if res.PatternFor(inst) != nil {
			found++
		}
		for _, pin := range inst.Master.Pins {
			if res.AccessPointFor(inst, pin) != nil {
				found++
			}
		}
	}
	dt := time.Since(t0)
	runtime.KeepAlive(found)
	return float64(dt.Nanoseconds()) / float64(len(insts))
}

// serveLayers measures the serve path layer by layer on the design
// registered from the traced result's snapshot: Manager dispatch over the
// design's own Server handler, read allocations, batch cost per instance,
// the /metrics scrape, and shedding under a short two-client replay. It
// repeats rounds of all of these until the deadline, at least once.
func serveLayers(ctx context.Context, in *inputs, d *db.Design, res *pao.Result, deadline time.Time, m map[string]metric, t *tally) error {
	s, err := registerSnapshot(ctx, in, d, res)
	if err != nil {
		return err
	}
	mgrH, srvH := s.mgr.Handler(), s.srv.Handler()
	rng := rand.New(rand.NewSource(in.seed))
	l := genOps(s.design, in.seed, tracedReplayOps, ecoEvery)
	var w sink
	reads := make([]*http.Request, tracedBlock)
	newReads := func() {
		for i := range reads {
			reads[i] = l.request(op{opRead, int32(rng.Intn(len(l.names)))})
		}
	}
	timed := func(h http.Handler, req *http.Request, o op) float64 {
		w.reset(o.kind == opScrape)
		t0 := time.Now()
		h.ServeHTTP(&w, req)
		dt := time.Since(t0)
		t.check("traced "+opNames[o.kind], checkResponse(o, &w))
		return dt.Seconds()
	}
	var viaMgr, viaSrv, allocs, bytes, batch, scrape []float64
	shed := 0
	for round := 0; round == 0 || time.Now().Before(deadline); round++ {
		// Alternate handler blocks so drift hits both sides alike.
		for i := 0; i < tracedBlocks; i++ {
			newReads()
			for _, req := range reads {
				viaMgr = append(viaMgr, timed(mgrH, req, op{kind: opRead}))
			}
			newReads()
			for _, req := range reads {
				viaSrv = append(viaSrv, timed(srvH, req, op{kind: opRead}))
			}
		}
		// Allocations per read through the Manager, request construction
		// excluded.
		newReads()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for _, req := range reads {
			w.reset(false)
			mgrH.ServeHTTP(&w, req)
		}
		runtime.ReadMemStats(&m1)
		allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs)/tracedBlock)
		bytes = append(bytes, float64(m1.TotalAlloc-m0.TotalAlloc)/tracedBlock)
		for i := 0; i < tracedBatches; i++ {
			o := op{opBatch, int32(rng.Intn(len(l.rowOrder) - batchSize + 1))}
			batch = append(batch, timed(mgrH, l.request(o), o))
		}
		for i := 0; i < tracedScrapes; i++ {
			o := op{kind: opScrape}
			scrape = append(scrape, timed(mgrH, l.request(o), o))
		}
		rs := replay(mgrH, l, 0, len(l.ops))
		t.addReplay(rs)
		shed += rs.shed
	}
	m["serve.dispatch_us"] = metric{(median(viaMgr) - median(viaSrv)) * 1e6, "us"}
	m["serve.read_allocs"] = metric{median(allocs), "count"}
	m["serve.read_bytes"] = metric{median(bytes), "B"}
	m["serve.batch_us_per_inst"] = metric{median(batch) * 1e6 / batchSize, "us"}
	m["telemetry.scrape_ms"] = metric{median(scrape) * 1e3, "ms"}
	m["serve.shed"] = metric{float64(shed), "count"}
	return nil
}

// ecoLayer applies seeded swaps through an ECOSession over the traced
// analyzer and result, timing Begin and Commit separately.
func ecoLayer(a *pao.Analyzer, res *pao.Result, seed int64, tr *tracer, m map[string]metric) error {
	l := genOps(a.Design, seed, tracedECOs, 1)
	sess := pao.NewECOSession(a, res)
	var reanalyzed, dirty []float64
	for _, op := range l.ecoOps() {
		sp := tr.begin("pao.eco.begin")
		txn, err := sess.Begin([]pao.ECOOp{op})
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("ECO begin: %w", err)
		}
		sp = tr.begin("pao.eco.commit")
		_, rep := txn.Commit()
		tr.end(sp)
		reanalyzed = append(reanalyzed, float64(rep.ReanalyzedClasses))
		dirty = append(dirty, float64(rep.DirtyClusters))
	}
	m["pao.eco.begin_ms"] = metric{tr.selfMS("pao.eco.begin"), "ms"}
	m["pao.eco.commit_ms"] = metric{tr.selfMS("pao.eco.commit"), "ms"}
	m["pao.eco.reanalyzed_classes"] = metric{median(reanalyzed), "count"}
	m["pao.eco.dirty_clusters"] = metric{median(dirty), "count"}
	return nil
}
