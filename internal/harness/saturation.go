package harness

import (
	"context"
	"fmt"

	"frfc/internal/experiment"
)

// SatResult is one configuration's adaptive saturation search outcome.
type SatResult struct {
	Spec string
	// Saturation is the highest sustainable offered load found (fraction
	// of capacity); Effective is debited by the spec's bandwidth penalty,
	// the paper's comparison basis.
	Saturation float64
	Effective  float64
	// BaseLatency is the contention-free latency the search calibrated
	// against.
	BaseLatency float64
	// Evals counts bisection evaluations; Simulated counts how many were
	// actually run (the rest came from the result store).
	Evals     int
	Simulated int
	// Err is non-empty when the search could not complete (cancellation,
	// a failed run, or a spec that delivers nothing at base load).
	Err string
}

// SaturationSearch locates each spec's saturation throughput by bisection —
// O(log((hi-lo)/resolution)) runs per configuration instead of a fixed load
// grid. Specs search in parallel (each bisection chain is inherently
// sequential); every individual run flows through the job executor, so the
// result store caches and resumes searches exactly like grid sweeps. The
// search is experiment.Bisect — the one experiment.SaturationThroughput walks
// — and returns identical saturation points at the same resolution.
func SaturationSearch(ctx context.Context, specs []experiment.Spec, resolution float64, o Options) ([]SatResult, error) {
	// The worst-case evals per spec is a display-only estimate for progress.
	tr := newTracker(len(specs)*experiment.MaxEvals(resolution), o.workers(), o.Progress)

	outs := mapPool(ctx, o.workers(), specs, func(ctx context.Context, _ int, s experiment.Spec) (SatResult, error) {
		return searchOne(ctx, s, resolution, o, tr), nil
	})
	results := make([]SatResult, len(specs))
	for i, out := range outs {
		if out.Err != nil {
			results[i] = SatResult{Spec: specs[i].Normalized().Name, Err: out.Err.Error()}
			continue
		}
		results[i] = out.Value
	}
	return results, ctx.Err()
}

// searchOne bisects one spec's saturation load, routing every run through the
// cached, panic-isolated job executor.
func searchOne(ctx context.Context, s experiment.Spec, resolution float64, o Options, tr *tracker) SatResult {
	s = s.Normalized()
	sr := SatResult{Spec: s.Name}
	sat, base, err := experiment.Bisect(s, resolution, func(spec experiment.Spec, load float64) (experiment.Result, error) {
		jr := execJob(ctx, Job{Spec: spec, Load: load}, o, tr)
		sr.Evals++
		if !jr.Cached {
			sr.Simulated++
		}
		if jr.Err != "" {
			return experiment.Result{}, fmt.Errorf("%s at load %.4f: %s", spec.Name, load, jr.Err)
		}
		return jr.Result, nil
	})
	sr.BaseLatency = base
	if err != nil {
		sr.Err = err.Error()
		return sr
	}
	sr.Saturation = sat
	sr.Effective = sat * (1 - s.BandwidthPenalty)
	return sr
}

// SummarizeAll measures one Table 3 row per spec — base latency, latency at
// 50% capacity, and saturation throughput — with the specs fanned over the
// worker pool. Row values equal experiment.Summarize's at the same resolution.
func SummarizeAll(ctx context.Context, specs []experiment.Spec, resolution float64, o Options) ([]experiment.SummaryRow, error) {
	cells := make([]experiment.Cell[experiment.SummaryRow], len(specs))
	for i, s := range specs {
		cells[i] = experiment.Cell[experiment.SummaryRow]{
			Name: "summarize " + s.Normalized().Name,
			Run: func(context.Context) (experiment.SummaryRow, error) {
				return experiment.Summarize(s, resolution), nil
			},
		}
	}
	return RunCells(ctx, cells, o)
}
