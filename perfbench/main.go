// Command perfbench is the repository's benchmark: it times the whole pin
// access flow (LEF/DEF bytes in, Result out) and an in-process serve load end
// to end, and, in a separate traced run, each layer the flow crosses. It only
// drives public functions of the lef, def, db, drc, pao, serve and telemetry
// packages and times them from outside.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	perfbench --workload batch_classdense --seed 7 --seconds 45 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}.
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// NOTES.md explains the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts verified operations; failures keep their first few messages
// for standard error.
type tally struct {
	attempted, failed int
	errs              []string
}

// check counts one verified operation.
func (t *tally) check(what string, err error) {
	t.attempted++
	if err != nil {
		t.fail(fmt.Sprintf("%s: %v", what, err))
	}
}

func (t *tally) fail(msg string) {
	t.failed++
	if len(t.errs) < 10 {
		t.errs = append(t.errs, msg)
	}
}

// addReplay folds a serve replay's counts into the tally.
func (t *tally) addReplay(r *replayStats) {
	t.attempted += r.attempted
	t.failed += r.failed
	t.errs = append(t.errs, r.errs...)
}

func main() {
	name := flag.String("workload", "", "workload name (batch_classdense, serve_mixed)")
	seed := flag.Int64("seed", defaultSeed, "workload seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 45, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	flag.Parse()
	rep, err := run(*name, *seed, *seconds, *trace)
	if err == nil {
		var out []byte
		if out, err = json.Marshal(rep); err == nil {
			fmt.Println(string(out))
			return
		}
	}
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// run executes one workload run and returns its result line.
func run(name string, seed int64, seconds, trace int) (*report, error) {
	w, err := workloadByName(name)
	if err != nil {
		return nil, err
	}
	if seconds < 1 {
		return nil, fmt.Errorf("--seconds %d: need at least 1", seconds)
	}
	if trace != 0 && trace != 1 {
		return nil, fmt.Errorf("--trace %d: want 0 or 1", trace)
	}
	ctx := context.Background()
	in, err := makeInputs(w, seed)
	if err != nil {
		return nil, err
	}
	ref, err := in.reference(ctx)
	if err != nil {
		return nil, err
	}
	budget := time.Duration(seconds) * time.Second
	var t tally
	var metrics map[string]metric
	if trace == 1 {
		metrics, err = runTraced(ctx, in, ref, budget, &t)
	} else {
		metrics, err = runEndToEnd(ctx, in, ref, budget, &t)
	}
	if err != nil {
		return nil, err
	}
	for _, e := range t.errs {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", e)
	}
	return &report{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: metrics}, nil
}
