package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"repro/internal/db"
	"repro/internal/def"
	"repro/internal/lef"
	"repro/internal/pao"
	"repro/internal/suite"
)

// defaultSeed is the seed internal/bench uses; its reference digests are
// checked in (referenceDigests).
const defaultSeed = 7

// workload is one benchmark input shape. Every workload runs a batch phase
// (the paorun path, repeated) and a serve phase (a fixed seeded op mix
// replayed against an in-process serve.Manager); the shares say how the
// measured time divides between them, and kind picks which set-up setup_s
// times.
type workload struct {
	name  string
	kind  string // "batch" or "serve"
	tc    int    // index into suite.Testcases
	scale float64
	// batchShare is the share of --seconds the batch phase gets; the serve
	// phase's op count is serveOpsPerSec times the remaining seconds.
	batchShare     float64
	serveOpsPerSec int
}

var workloads = []workload{
	{
		name: "batch_classdense", kind: "batch", tc: 3, scale: 0.1,
		batchShare: 0.8, serveOpsPerSec: 32000,
	},
	{
		name: "serve_mixed", kind: "serve", tc: 0, scale: 1,
		batchShare: 0.4, serveOpsPerSec: 50000,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// referenceDigests are the cache-off RunContext digests of each workload's
// design at defaultSeed. TestReferenceDigests recomputes them.
var referenceDigests = map[string]string{
	"batch_classdense": "ae1dca7fe3853bea966edd37a98097c79b99b30d1cc6b16a7abdc54ddca6e844",
	"serve_mixed":      "fe0ed6a16b788a5ba03ba34a4b24edd3afc3219e833579b171c2a87b798eb3a9",
}

// analysisConfig is the configuration every analysis in the benchmark uses:
// the paper's settings, single-threaded as paorun runs by default.
func analysisConfig() pao.Config {
	cfg := pao.DefaultConfig()
	cfg.Workers = 1
	return cfg
}

// inputs is a workload's generated design, serialized as the LEF/DEF bytes
// the timed flow starts from.
type inputs struct {
	w    workload
	seed int64
	lef  []byte
	def  []byte
}

// makeInputs generates the workload's design for a seed and serializes it.
func makeInputs(w workload, seed int64) (*inputs, error) {
	spec := suite.Testcases[w.tc].Scale(w.scale).WithSeed(seed)
	d, err := suite.Generate(spec)
	if err != nil {
		return nil, fmt.Errorf("generate %s: %w", spec.Name, err)
	}
	var lb, dbuf bytes.Buffer
	if err := lef.Write(&lb, d.Tech, d.Masters); err != nil {
		return nil, fmt.Errorf("write LEF: %w", err)
	}
	if err := def.Write(&dbuf, d); err != nil {
		return nil, fmt.Errorf("write DEF: %w", err)
	}
	return &inputs{w: w, seed: seed, lef: lb.Bytes(), def: dbuf.Bytes()}, nil
}

// parse runs lef.Parse and def.Parse over the serialized inputs.
func (in *inputs) parse() (*db.Design, error) {
	lib, err := lef.Parse(bytes.NewReader(in.lef))
	if err != nil {
		return nil, fmt.Errorf("parse LEF: %w", err)
	}
	d, err := def.Parse(bytes.NewReader(in.def), lib.Tech, lib.Masters)
	if err != nil {
		return nil, fmt.Errorf("parse DEF: %w", err)
	}
	return d, nil
}

// flow is the paorun path: LEF/DEF bytes in, analyzed Result out.
func (in *inputs) flow(ctx context.Context) (*db.Design, *pao.Analyzer, *pao.Result, error) {
	d, err := in.parse()
	if err != nil {
		return nil, nil, nil, err
	}
	a := pao.NewAnalyzer(d, analysisConfig())
	res, err := a.RunContext(ctx)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("analyze: %w", err)
	}
	return d, a, res, nil
}

// reference returns the digest every analysis of this input must produce:
// the checked-in one at defaultSeed, otherwise a cache-off run's.
func (in *inputs) reference(ctx context.Context) (string, error) {
	if in.seed == defaultSeed {
		if ref, ok := referenceDigests[in.w.name]; ok {
			return ref, nil
		}
	}
	return in.computeReference(ctx)
}

// computeReference analyzes the input with the memo caches off.
func (in *inputs) computeReference(ctx context.Context) (string, error) {
	d, err := in.parse()
	if err != nil {
		return "", err
	}
	cfg := analysisConfig()
	cfg.NoCache = true
	res, err := pao.NewAnalyzer(d, cfg).RunContext(ctx)
	if err != nil {
		return "", fmt.Errorf("reference analysis: %w", err)
	}
	return digest(d, res)
}

// digest hashes a result's snapshot with the timing fields zeroed: raw
// EncodeSnapshot bytes carry per-step durations and differ on every run. The
// snapshot is always encoded with analysisConfig, so cache-on and cache-off
// results hash alike.
func digest(d *db.Design, res *pao.Result) (string, error) {
	flat := *res
	flat.Stats = res.Stats.Counts()
	h := sha256.New()
	if err := pao.EncodeSnapshot(h, d, analysisConfig(), &flat); err != nil {
		return "", fmt.Errorf("encode snapshot: %w", err)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// checkResult verifies one batch result: a clean health report, no failed
// pins, and the reference digest.
func checkResult(d *db.Design, res *pao.Result, ref string) error {
	if !res.Health.OK() {
		return fmt.Errorf("health not OK: %v", res.Health)
	}
	if res.Stats.FailedPins != 0 {
		return fmt.Errorf("%d failed pins", res.Stats.FailedPins)
	}
	got, err := digest(d, res)
	if err != nil {
		return err
	}
	if got != ref {
		return fmt.Errorf("digest %s, want %s", got, ref)
	}
	return nil
}
