package harness

import (
	"context"
	"fmt"

	"frfc/internal/experiment"
)

// SweepOptions extends Options for grid sweeps.
type SweepOptions struct {
	Options
	// StopAtSaturation short-circuits each configuration's load series:
	// loads are executed in ascending order per spec (specs still run in
	// parallel), and once a point saturates every higher load is reported
	// as a synthesized Saturated result without simulating it. The
	// short-circuit decision depends only on simulation results, never on
	// scheduling, so output remains deterministic across worker counts —
	// but it differs from a full grid, so it is opt-in.
	StopAtSaturation bool
}

// SweepSpecs runs every (spec, load) point and returns one result row per
// spec, loads in the given order — the parallel analog of calling
// experiment.Sweep once per spec, bit-identical to it.
func SweepSpecs(ctx context.Context, specs []experiment.Spec, loads []float64, o SweepOptions) ([][]JobResult, error) {
	if o.StopAtSaturation {
		return sweepLanes(ctx, specs, loads, o)
	}
	jobs := make([]Job, 0, len(specs)*len(loads))
	for _, s := range specs {
		jobs = AppendJobs(jobs, s, loads)
	}
	flat, err := RunJobs(ctx, jobs, o.Options)
	rows := make([][]JobResult, len(specs))
	for i := range specs {
		rows[i] = flat[i*len(loads) : (i+1)*len(loads)]
	}
	return rows, err
}

// sweepLanes runs each spec's loads as one sequential lane so that a
// saturated point deterministically short-circuits the loads above it; lanes
// execute in parallel.
func sweepLanes(ctx context.Context, specs []experiment.Spec, loads []float64, o SweepOptions) ([][]JobResult, error) {
	tr := newTracker(len(specs)*len(loads), o.workers(), o.Progress)
	outs := mapPool(ctx, o.workers(), specs, func(ctx context.Context, _ int, s experiment.Spec) ([]JobResult, error) {
		row := make([]JobResult, 0, len(loads))
		saturatedAt := -1.0
		for _, l := range loads {
			j := Job{Spec: s, Load: l}
			if saturatedAt >= 0 && l >= saturatedAt {
				jr := JobResult{
					Job: j, Hash: j.Hash(), Skipped: true,
					Result: experiment.Result{Spec: j.EffectiveSpec().Name, Load: l, Saturated: true},
				}
				tr.finish(&jr)
				row = append(row, jr)
				continue
			}
			jr := execJob(ctx, j, o.Options, tr)
			if jr.Err == "" && jr.Result.Saturated && saturatedAt < 0 {
				saturatedAt = l
			}
			row = append(row, jr)
		}
		return row, nil
	})
	rows := make([][]JobResult, len(specs))
	var err error
	for i, out := range outs {
		if out.Err != nil {
			// Lane never started: campaign cancelled.
			row := make([]JobResult, len(loads))
			for k, l := range loads {
				row[k] = JobResult{Job: Job{Spec: specs[i], Load: l}, Err: out.Err.Error()}
			}
			rows[i] = row
			err = out.Err
			continue
		}
		rows[i] = out.Value
	}
	if cerr := ctx.Err(); cerr != nil {
		err = cerr
	}
	return rows, err
}

// FaultSweep is experiment.FaultSweep fanned over the worker pool: each
// (loss rate, retry policy) cell owns its own network and RNG, so the points
// come back bit-identical to the serial sweep, in the same order. The first
// cell failure (cancellation or a panic, captured per-cell) is returned as
// the error alongside whatever completed.
func FaultSweep(ctx context.Context, fo experiment.FaultSweepOptions, o Options) ([]experiment.FaultPoint, error) {
	fo = fo.WithDefaults()
	type cell struct {
		rate  float64
		retry int
	}
	cells := make([]cell, 0, 2*len(fo.Rates))
	for _, rate := range fo.Rates {
		for _, retry := range []int{0, fo.RetryLimit} {
			cells = append(cells, cell{rate, retry})
		}
	}
	tr := newTracker(len(cells), o.workers(), o.Progress)
	outs := mapPool(ctx, o.workers(), cells, func(ctx context.Context, _ int, c cell) (pt experiment.FaultPoint, err error) {
		defer func() {
			jr := JobResult{}
			if err != nil {
				jr.Err = err.Error()
			}
			tr.finish(&jr)
		}()
		pt, err = experiment.FaultCell(ctx, fo, c.rate, c.retry)
		return pt, err
	})
	points := make([]experiment.FaultPoint, len(cells))
	var err error
	for i, out := range outs {
		points[i] = out.Value
		if out.Err != nil && err == nil {
			err = fmt.Errorf("fault cell (rate=%g, retry=%d): %w", cells[i].rate, cells[i].retry, out.Err)
		}
	}
	return points, err
}

// IntegritySweep is experiment.IntegritySweep fanned over the worker pool:
// each (BER, end-to-end check) cell owns its own network and RNG, so the
// points come back bit-identical to the serial sweep, in the same order. The
// first cell failure (cancellation or a captured panic) is returned as the
// error alongside whatever completed.
func IntegritySweep(ctx context.Context, io experiment.IntegritySweepOptions, o Options) ([]experiment.IntegrityPoint, error) {
	io = io.WithDefaults()
	type cell struct {
		ber float64
		e2e bool
	}
	cells := make([]cell, 0, 2*len(io.BERs))
	for _, ber := range io.BERs {
		for _, e2e := range []bool{true, false} {
			cells = append(cells, cell{ber, e2e})
		}
	}
	tr := newTracker(len(cells), o.workers(), o.Progress)
	outs := mapPool(ctx, o.workers(), cells, func(ctx context.Context, _ int, c cell) (pt experiment.IntegrityPoint, err error) {
		defer func() {
			jr := JobResult{}
			if err != nil {
				jr.Err = err.Error()
			}
			tr.finish(&jr)
		}()
		pt, err = experiment.IntegrityCell(ctx, io, c.ber, c.e2e)
		return pt, err
	})
	points := make([]experiment.IntegrityPoint, len(cells))
	var err error
	for i, out := range outs {
		points[i] = out.Value
		if out.Err != nil && err == nil {
			err = fmt.Errorf("integrity cell (ber=%g, e2e=%v): %w", cells[i].ber, cells[i].e2e, out.Err)
		}
	}
	return points, err
}

// ChaosSweep is experiment.ChaosSweep fanned over the worker pool: each
// intensity's campaign owns its own network and RNG (and the chaos plan is a
// pure function of the options), so the points come back bit-identical to the
// serial sweep, in intensity order. The first cell failure (cancellation or a
// captured panic) is returned as the error alongside whatever completed.
func ChaosSweep(ctx context.Context, co experiment.ChaosSweepOptions, o Options) ([]experiment.ChaosPoint, error) {
	co = co.WithDefaults()
	tr := newTracker(len(co.Intensities), o.workers(), o.Progress)
	outs := mapPool(ctx, o.workers(), co.Intensities, func(ctx context.Context, _ int, intensity float64) (pt experiment.ChaosPoint, err error) {
		defer func() {
			jr := JobResult{}
			if err != nil {
				jr.Err = err.Error()
			}
			tr.finish(&jr)
		}()
		pt, err = experiment.ChaosCell(ctx, co, intensity)
		return pt, err
	})
	points := make([]experiment.ChaosPoint, len(co.Intensities))
	var err error
	for i, out := range outs {
		points[i] = out.Value
		if out.Err != nil && err == nil {
			err = fmt.Errorf("chaos cell (intensity=%g): %w", co.Intensities[i], out.Err)
		}
	}
	return points, err
}

// ReliabilitySweep is experiment.ReliabilitySweep fanned over the worker
// pool: each hard-fault scenario owns its own network and RNG, so the points
// come back bit-identical to the serial sweep, in scenario order. The first
// cell failure (an invalid scenario, cancellation, or a captured panic) is
// returned as the error alongside whatever completed.
func ReliabilitySweep(ctx context.Context, ro experiment.ReliabilitySweepOptions, o Options) ([]experiment.ReliabilityPoint, error) {
	ro = ro.WithDefaults()
	tr := newTracker(len(ro.Scenarios), o.workers(), o.Progress)
	outs := mapPool(ctx, o.workers(), ro.Scenarios, func(ctx context.Context, _ int, sc experiment.ReliabilityScenario) (pt experiment.ReliabilityPoint, err error) {
		defer func() {
			jr := JobResult{}
			if err != nil {
				jr.Err = err.Error()
			}
			tr.finish(&jr)
		}()
		pt, err = experiment.ReliabilityCell(ctx, ro, sc)
		return pt, err
	})
	points := make([]experiment.ReliabilityPoint, len(ro.Scenarios))
	var err error
	for i, out := range outs {
		points[i] = out.Value
		if out.Err != nil && err == nil {
			err = fmt.Errorf("reliability scenario %q: %w", ro.Scenarios[i].Name, out.Err)
		}
	}
	return points, err
}
