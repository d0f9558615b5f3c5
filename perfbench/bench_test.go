package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
)

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if got := median(nil); !math.IsNaN(got) {
		t.Errorf("empty median = %v, want NaN", got)
	}
}

// TestTailQuantile pins the nearest-rank percentile and the rule that at
// least minTail samples lie beyond a reported percentile.
func TestTailQuantile(t *testing.T) {
	xs := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(n - i) // descending: the helper must sort
		}
		return out
	}
	got, err := tailQuantile(xs(1000), 0.99)
	if err != nil || got != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990 with 10 samples beyond", got, err)
	}
	if _, err := tailQuantile(xs(999), 0.99); err == nil {
		t.Error("p99 of 999 samples has 9 beyond it; want an error")
	}
	if _, err := tailQuantile(xs(100), 0.99); err == nil {
		t.Error("p99 of 100 samples has 1 beyond it; want an error")
	}
	if got, err := tailQuantile(xs(20), 0.5); err != nil || got != 10 {
		t.Errorf("p50 of 1..20 = %v, %v; want 10", got, err)
	}
	if _, err := tailQuantile(nil, 0.5); err == nil {
		t.Error("quantile of no samples: want an error")
	}
}

// TestInputsBySeed pins that a seed fixes the design and the serve op list,
// and that another seed changes both.
func TestInputsBySeed(t *testing.T) {
	for _, w := range workloads {
		a, err := makeInputs(w, defaultSeed)
		if err != nil {
			t.Fatal(err)
		}
		b, err := makeInputs(w, defaultSeed)
		if err != nil {
			t.Fatal(err)
		}
		c, err := makeInputs(w, defaultSeed+1)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.lef, b.lef) || !bytes.Equal(a.def, b.def) {
			t.Errorf("%s: seed %d gave two different designs", w.name, defaultSeed)
		}
		if bytes.Equal(a.def, c.def) {
			t.Errorf("%s: seeds %d and %d gave the same design", w.name, defaultSeed, defaultSeed+1)
		}
		da, err := a.parse()
		if err != nil {
			t.Fatal(err)
		}
		db, err := b.parse()
		if err != nil {
			t.Fatal(err)
		}
		const n = 50000
		la, lb := genOps(da, a.seed, n, ecoEvery), genOps(db, b.seed, n, ecoEvery)
		if !reflect.DeepEqual(la, lb) {
			t.Errorf("%s: seed %d gave two different op lists", w.name, defaultSeed)
		}
		lc := genOps(da, defaultSeed+1, n, ecoEvery)
		if reflect.DeepEqual(la.ops, lc.ops) {
			t.Errorf("%s: seeds %d and %d gave the same op list", w.name, defaultSeed, defaultSeed+1)
		}
		counts := map[opKind]int{}
		for _, o := range la.ops {
			counts[o.kind]++
		}
		for k := range opNames {
			if counts[opKind(k)] == 0 {
				t.Errorf("%s: op list has no %s op", w.name, opNames[k])
			}
		}
	}
}

// TestSwapsDisjoint pins the property the ECO ≡ fresh check relies on: no
// instance is in two swaps, and swapped instances have equal widths.
func TestSwapsDisjoint(t *testing.T) {
	w, _ := workloadByName("serve_mixed")
	in, err := makeInputs(w, defaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	d, err := in.parse()
	if err != nil {
		t.Fatal(err)
	}
	l := genOps(d, in.seed, 200*ecoEvery, ecoEvery)
	if len(l.swaps) != 200 {
		t.Fatalf("%d swaps, want 200", len(l.swaps))
	}
	seen := map[string]bool{}
	for _, s := range l.swaps {
		for _, n := range s {
			if seen[n] {
				t.Fatalf("instance %s is in two swaps", n)
			}
			seen[n] = true
		}
		if d.InstByName(s[0]).Master.Size.X != d.InstByName(s[1]).Master.Size.X {
			t.Errorf("swap %v pairs instances of different widths", s)
		}
	}
}

// TestReferenceDigests recomputes the checked-in cache-off digests at the
// default seed.
func TestReferenceDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("analyzes every workload's design")
	}
	for _, w := range workloads {
		in, err := makeInputs(w, defaultSeed)
		if err != nil {
			t.Fatal(err)
		}
		got, err := in.computeReference(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if want := referenceDigests[w.name]; got != want {
			t.Errorf("%s: reference digest %s, checked in %s", w.name, got, want)
		}
	}
}

// benchmarkSpec is the part of BENCHMARK.json the metric check reads.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestMetricsMatchBenchmarkJSON runs a one-second run of a workload, untraced
// and traced, and checks that each emits exactly the metrics BENCHMARK.json
// names, with their units, and no failed op.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var specNames []string
	for _, w := range spec.Workloads {
		specNames = append(specNames, w.Name)
	}
	if !reflect.DeepEqual(names, specNames) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", specNames, names)
	}
	for trace, want := range []map[string]string{{}, {}} {
		list := spec.EndToEnd
		if trace == 1 {
			list = spec.PerLayer
		}
		for _, m := range list {
			want[m.Name] = m.Unit
		}
		rep, err := run("serve_mixed", defaultSeed, 1, trace)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
			t.Errorf("trace %d: correct=%v attempted=%d failed=%d", trace, rep.Correct, rep.Attempted, rep.Failed)
		}
		got := map[string]string{}
		for name, m := range rep.Metrics {
			got[name] = m.Unit
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("trace %d: %s = %v", trace, name, m.Value)
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("trace %d: emitted metrics\n%v\nBENCHMARK.json names\n%v", trace, got, want)
		}
	}
}
