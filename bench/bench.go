package main

import (
	"encoding/json"
	"fmt"
	"os"

	"frfc"
)

// metricDef is one metric as BENCHMARK.json declares it. The benchmark reads
// the file instead of repeating its lists, so a name printed here is a name
// declared there.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type benchFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadBenchFile(path string) (benchFile, error) {
	var bf benchFile
	b, err := os.ReadFile(path)
	if err != nil {
		return bf, err
	}
	if err := json.Unmarshal(b, &bf); err != nil {
		return bf, fmt.Errorf("%s: %w", path, err)
	}
	return bf, nil
}

// workload is one set of inputs. The three single-run workloads differ in
// fabric, mesh size and load; the sizes are fixed so that simulated
// statistics at seed 1 can be compared with golden.json.
type workload struct {
	name     string
	campaign bool
	// fr selects the flit-reservation fabric (internal/core); otherwise the
	// virtual-channel baseline (internal/vcrouter) runs.
	fr     bool
	radix  int
	load   float64
	sample int
	warmup int
}

var workloads = []workload{
	{name: "fr-mid", fr: true, radix: 8, load: 0.50, sample: 6000, warmup: 3000},
	{name: "fr-sparse", fr: true, radix: 16, load: 0.10, sample: 3000, warmup: 1000},
	{name: "vc-mid", radix: 8, load: 0.50, sample: 50000, warmup: 3000},
	{name: "campaign", campaign: true},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Quick sizes: enough cycles to exercise every code path, few enough that
// all four workloads finish in seconds. Quick results are never compared
// with golden.json or with a bound.
const (
	quickSample = 500
	quickWarmup = 300
)

// A small job is one campaign-sized simulation: what frserve runs sixty of
// per cold campaign, and what the single-run workloads time as their warm
// operation.
const (
	smallSample = 40
	smallWarmup = 100
)

// spec builds the workload's configuration through the root package only.
func (w workload) spec(quick bool) frfc.Spec {
	s := frfc.VC8(frfc.FastControl, 5)
	if w.fr {
		s = frfc.FR6(frfc.FastControl, 5)
	}
	sample, warmup := w.sample, w.warmup
	if quick {
		sample, warmup = quickSample, quickWarmup
	}
	return s.WithMeshRadix(w.radix).WithSampling(sample, warmup)
}

// childConfig is what the driver hands a measuring child on its command line.
type childConfig struct {
	workload  workload
	seed      uint64
	seconds   float64
	trace     bool
	quick     bool
	setupOnly bool
	// t0 is the driver's clock just before it started the child, in Unix
	// nanoseconds: set-up time runs from there.
	t0 int64
}

// runResult is one child's report to the driver, and one entry of
// result.json.
type runResult struct {
	Workload  string   `json:"workload"`
	Seed      uint64   `json:"seed"`
	Trace     bool     `json:"trace"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	// SetupS is this child's own set-up time in reference-seconds.
	SetupS  float64            `json:"setup_s"`
	Metrics map[string]float64 `json:"metrics"`
	// Missing names per-layer metrics that could not be measured because
	// the layer pass was not compiled in.
	Missing []string `json:"missing,omitempty"`
	// NotApplicable names per-layer metrics of layers this workload does
	// not run; they read 0.
	NotApplicable []string `json:"not_applicable,omitempty"`
	// Samples keeps the per-repetition values behind each reported median.
	Samples map[string][]float64 `json:"samples,omitempty"`
}

func newResult(cfg childConfig) *runResult {
	return &runResult{
		Workload: cfg.workload.name, Seed: cfg.seed, Trace: cfg.trace,
		Metrics: map[string]float64{}, Samples: map[string][]float64{},
	}
}

// op counts one attempted operation; a non-empty reason marks it failed.
func (r *runResult) op(reason string) {
	r.Attempted++
	if reason != "" {
		r.Failed++
		if len(r.Failures) < 20 {
			r.Failures = append(r.Failures, reason)
		}
	}
}

// settle accounts for every per-layer metric a traced run did not set: with
// the layer pass compiled in, the metric belongs to a layer this workload
// does not exercise and reads 0; without it, the metric is missing.
func (r *runResult) settle(defs []metricDef) {
	for _, def := range defs {
		if _, ok := r.Metrics[def.Name]; ok {
			continue
		}
		if layersBuilt {
			r.Metrics[def.Name] = 0
			r.NotApplicable = append(r.NotApplicable, def.Name)
		} else {
			r.Missing = append(r.Missing, def.Name)
		}
	}
}
