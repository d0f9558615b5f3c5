package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/db"
	"repro/internal/pao"
	"repro/internal/serve"
	"repro/internal/telemetry"
)

// designID is the id every benchmark design registers under.
const designID = "bench"

// clients is the number of closed-loop serve clients (the benchmark host has
// two cores; more clients would only queue).
const clients = 2

// newManager builds a Manager configured as cmd/paoserve's flag defaults
// configure it: NumCPU in-flight slots, a 64-deep queue, no rate limit. The
// zero serve.Config is deliberately not used: its QueueDepth 0 sheds as soon
// as both slots of a 2-CPU host are busy, so the benchmark would measure
// shedding.
func newManager() *serve.Manager {
	return serve.NewManager(analysisConfig(), serve.ManagerConfig{
		Design: serve.Config{
			MaxInFlight:      0, // NumCPU
			QueueDepth:       64,
			RequestTimeout:   5 * time.Second,
			RatePerSec:       0,
			Burst:            1,
			BreakerThreshold: 3,
			BreakerCooldown:  30 * time.Second,
			DrainTimeout:     10 * time.Second,
			SlowLogSize:      128,
			SlowThreshold:    100 * time.Millisecond,
		},
		WarmWait:       2 * time.Second,
		MaxUploadBytes: 32 << 20,
		DrainTimeout:   10 * time.Second,
	})
}

// served is a design registered in a Manager, ready for the op replay.
type served struct {
	mgr    *serve.Manager
	srv    *serve.Server
	design *db.Design
}

// registerAnalyze registers a freshly parsed design, analyzing it (the serve
// workload's set-up). It returns the registration wall time.
func registerAnalyze(ctx context.Context, in *inputs) (*served, time.Duration, error) {
	d, err := in.parse()
	if err != nil {
		return nil, 0, err
	}
	mgr := newManager()
	t0 := time.Now()
	srv, err := mgr.RegisterDesign(ctx, designID, d, analysisConfig(), nil)
	dt := time.Since(t0)
	if err != nil {
		return nil, 0, fmt.Errorf("register: %w", err)
	}
	return &served{mgr: mgr, srv: srv, design: d}, dt, nil
}

// registerSnapshot registers a freshly parsed design from the snapshot of a
// result already computed, so the batch workloads serve their own design
// without a second analysis.
func registerSnapshot(ctx context.Context, in *inputs, d0 *db.Design, res *pao.Result) (*served, error) {
	var snap bytes.Buffer
	if err := pao.EncodeSnapshot(&snap, d0, analysisConfig(), res); err != nil {
		return nil, fmt.Errorf("encode snapshot: %w", err)
	}
	d, err := in.parse()
	if err != nil {
		return nil, err
	}
	mgr := newManager()
	srv, err := mgr.RegisterDesign(ctx, designID, d, analysisConfig(),
		&serve.RegisterOptions{Snapshot: snap.Bytes()})
	if err != nil {
		return nil, fmt.Errorf("register: %w", err)
	}
	if src := srv.Source(); src != "snapshot" {
		return nil, fmt.Errorf("registered from %q, want the uploaded snapshot", src)
	}
	return &served{mgr: mgr, srv: srv, design: d}, nil
}

// replayStats holds what one replay measured. Latencies are in seconds.
type replayStats struct {
	lat       [len(opNames)][]float64
	attempted int
	failed    int
	shed      int
	errs      []string
	wall      time.Duration
}

// replay runs ops [lo, hi) of the list through h with closed-loop clients
// pulling the next op from a shared cursor, timing each ServeHTTP call.
// Request construction and response checks stay outside the timed call.
func replay(h http.Handler, l *opList, lo, hi int) *replayStats {
	var next atomic.Int64
	next.Store(int64(lo))
	parts := make([]*replayStats, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		part := &replayStats{}
		parts[c] = part
		wg.Add(1)
		go func() {
			defer wg.Done()
			var w sink
			for {
				i := next.Add(1) - 1
				if i >= int64(hi) {
					return
				}
				o := l.ops[i]
				req := l.request(o)
				w.reset(o.kind == opScrape)
				t0 := time.Now()
				h.ServeHTTP(&w, req)
				dt := time.Since(t0)
				part.lat[o.kind] = append(part.lat[o.kind], dt.Seconds())
				part.attempted++
				if err := checkResponse(o, &w); err != nil {
					part.failed++
					if w.code == http.StatusServiceUnavailable || w.code == http.StatusTooManyRequests {
						part.shed++
					}
					if len(part.errs) < 5 {
						part.errs = append(part.errs, err.Error())
					}
				}
			}
		}()
	}
	wg.Wait()
	out := &replayStats{wall: time.Since(start)}
	for _, p := range parts {
		out.add(p)
	}
	return out
}

// add folds another replay's samples and counts into r.
func (r *replayStats) add(p *replayStats) {
	for k := range p.lat {
		r.lat[k] = append(r.lat[k], p.lat[k]...)
	}
	r.attempted += p.attempted
	r.failed += p.failed
	r.shed += p.shed
	r.errs = append(r.errs, p.errs...)
	r.wall += p.wall
}

// checkResponse fails any non-200 answer and any scrape that is not valid
// Prometheus exposition.
func checkResponse(o op, w *sink) error {
	if w.code != http.StatusOK {
		return fmt.Errorf("%s: status %d", opNames[o.kind], w.code)
	}
	if o.kind == opScrape {
		if _, err := telemetry.CheckProm(bytes.NewReader(w.body)); err != nil {
			return fmt.Errorf("scrape: %w", err)
		}
	}
	return nil
}

// checkECOFresh verifies the ECO ≡ fresh invariant after a replay: the served
// result equals a fresh analysis of a twin design mutated by the same swaps.
func checkECOFresh(ctx context.Context, in *inputs, s *served, l *opList) error {
	twin, err := in.parse()
	if err != nil {
		return err
	}
	if err := pao.ApplyOpsToDesign(twin, l.ecoOps()); err != nil {
		return fmt.Errorf("apply swaps to twin: %w", err)
	}
	fresh, err := pao.NewAnalyzer(twin, analysisConfig()).RunContext(ctx)
	if err != nil {
		return fmt.Errorf("fresh analysis: %w", err)
	}
	want, err := digest(twin, fresh)
	if err != nil {
		return err
	}
	got, err := digest(s.design, s.srv.Result())
	if err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("served result after %d swaps differs from a fresh analysis (%s vs %s)",
			len(l.swaps), got, want)
	}
	return nil
}
