package harness

import (
	"context"

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
// search is experiment.Bisect, the one bisection there is.
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
	sat, base, err := experiment.Bisect(s, resolution, runner(ctx, o, tr, func(jr JobResult) {
		sr.Evals++
		if !jr.Cached {
			sr.Simulated++
		}
	}))
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
// worker pool and every point of every row run through the job executor, so
// a row caches, resumes and is counted like any campaign's jobs. The first
// failure, naming the spec and load it struck, is returned beside the rows.
func SummarizeAll(ctx context.Context, specs []experiment.Spec, resolution float64, o Options) ([]experiment.SummaryRow, error) {
	tr := newTracker(len(specs)*(experiment.MaxEvals(resolution)+1), o.workers(), o.Progress)
	outs := mapPool(ctx, o.workers(), specs, func(ctx context.Context, _ int, s experiment.Spec) (experiment.SummaryRow, error) {
		return experiment.Summarize(s, resolution, runner(ctx, o, tr, nil))
	})
	rows := make([]experiment.SummaryRow, len(specs))
	var err error
	for i, out := range outs {
		rows[i] = out.Value
		if out.Err != nil && err == nil {
			err = out.Err
		}
	}
	return rows, err
}

// runner is the run function experiment.Bisect and experiment.Summarize take:
// every point is a job resolved by execJob, and seen, when non-nil, is shown
// each job's outcome. A failed job is its Failure.
func runner(ctx context.Context, o Options, tr *tracker, seen func(JobResult)) func(experiment.Spec, float64) (experiment.Result, error) {
	return func(spec experiment.Spec, load float64) (experiment.Result, error) {
		jr := execJob(ctx, Job{Spec: spec, Load: load}, o, tr)
		if seen != nil {
			seen(jr)
		}
		return jr.Result, jr.Failure()
	}
}
