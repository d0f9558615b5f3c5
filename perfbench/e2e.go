package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/db"
	"repro/internal/pao"
)

// setupCycles is how many times a run repeats its set-up; setup_s is their
// median, so one slow cycle does not move it.
const setupCycles = 3

// rounds is how many times a run alternates its batch and serve phases.
const rounds = 5

// liveHeapMB forces two collections (the second sweeps what the first's
// finalizers freed) and returns the live heap in MB.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// runEndToEnd is the untraced run: set-up, interleaved rounds of flows and
// serving, the ECO ≡ fresh check, then the end-to-end metrics.
func runEndToEnd(ctx context.Context, in *inputs, ref string, budget time.Duration, t *tally) (map[string]metric, error) {
	w := in.w
	setup := make([]float64, 0, setupCycles)
	var heapMB float64
	var srv *served
	var keepD *db.Design
	var keepA *pao.Analyzer
	var keepRes *pao.Result
	if w.kind == "serve" {
		// Set-up is RegisterDesign until ready; the last registration serves.
		for i := 0; i < setupCycles; i++ {
			runtime.GC()
			s, dt, err := registerAnalyze(ctx, in)
			if err != nil {
				return nil, err
			}
			setup = append(setup, dt.Seconds())
			t.check("registered result", checkResult(s.design, s.srv.Result(), ref))
			srv = s
		}
		heapMB = liveHeapMB()
		runtime.KeepAlive(srv)
	} else {
		// Set-up is parsing plus a flow whose timing is discarded. The heap
		// is measured with the last flow's design, analyzer and result live.
		for i := 0; i < setupCycles; i++ {
			keepD, keepA, keepRes = nil, nil, nil
			runtime.GC()
			t0 := time.Now()
			d, a, res, err := in.flow(ctx)
			dt := time.Since(t0)
			if err != nil {
				return nil, err
			}
			setup = append(setup, dt.Seconds())
			t.check("warm-up flow", checkResult(d, res, ref))
			keepD, keepA, keepRes = d, a, res
		}
		heapMB = liveHeapMB()
		runtime.KeepAlive(keepA)
	}

	// The serving state: the last registration, or, for the batch
	// workloads, the design registered from the last set-up flow's snapshot.
	if srv == nil {
		s, err := registerSnapshot(ctx, in, keepD, keepRes)
		if err != nil {
			return nil, err
		}
		t.check("registered snapshot", checkResult(s.design, s.srv.Result(), ref))
		srv = s
	}
	keepD, keepA, keepRes = nil, nil, nil
	serveSecs := budget.Seconds() * (1 - w.batchShare)
	l := genOps(srv.design, in.seed, int(float64(w.serveOpsPerSec)*serveSecs), ecoEvery)
	h := srv.mgr.Handler()

	// The measured phases interleave in rounds, so every metric's samples
	// spread over the whole run rather than one stretch of it: each round
	// alternates full flows and reruns on the flow's analyzer for its share
	// of the batch time (at least one of each), then replays the next slice
	// of the fixed op list.
	start := time.Now()
	share := time.Duration(float64(budget) * w.batchShare)
	var flows, reruns []float64
	rs := &replayStats{}
	for r := 1; r <= rounds; r++ {
		for i := 0; i == 0 || time.Since(start) < share*time.Duration(r)/rounds+rs.wall; i++ {
			runtime.GC()
			t0 := time.Now()
			d, a, res, err := in.flow(ctx)
			dt := time.Since(t0)
			if err != nil {
				return nil, err
			}
			flows = append(flows, dt.Seconds())
			t.check("flow", checkResult(d, res, ref))

			runtime.GC()
			t0 = time.Now()
			res2, err := a.RunContext(ctx)
			dt = time.Since(t0)
			if err != nil {
				return nil, fmt.Errorf("rerun: %w", err)
			}
			reruns = append(reruns, dt.Seconds())
			t.check("rerun", checkResult(d, res2, ref))
		}
		runtime.GC()
		rs.add(replay(h, l, len(l.ops)*(r-1)/rounds, len(l.ops)*r/rounds))
	}
	t.addReplay(rs)
	t.check("ECO result equals fresh analysis", checkECOFresh(ctx, in, srv, l))

	describe("setup_s", setup)
	describe("flow_s", flows)
	describe("rerun_s", reruns)
	for k, xs := range rs.lat {
		describe(opNames[k]+"_s", xs)
	}
	fmt.Fprintf(os.Stderr, "perfbench: serve phase %d ops in %.2fs, %d swaps\n", len(l.ops), rs.wall.Seconds(), len(l.swaps))
	readP99, err := tailQuantile(rs.lat[opRead], 0.99)
	if err != nil {
		return nil, fmt.Errorf("read_p99_us: %w", err)
	}
	if len(rs.lat[opECO]) == 0 {
		return nil, fmt.Errorf("eco_p50_ms: the op list has no ECO")
	}
	return map[string]metric{
		"setup_s":     {median(setup), "s"},
		"flow_s":      {median(flows), "s"},
		"rerun_s":     {median(reruns), "s"},
		"heap_mb":     {heapMB, "MB"},
		"read_p50_us": {median(rs.lat[opRead]) * 1e6, "us"},
		"read_p99_us": {readP99 * 1e6, "us"},
		"eco_p50_ms":  {median(rs.lat[opECO]) * 1e3, "ms"},
		"serve_ops_s": {float64(len(l.ops)) / rs.wall.Seconds(), "1/s"},
	}, nil
}
