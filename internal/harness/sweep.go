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

// RunCells fans the cells of a resolved sweep (or any other enumeration of
// independent rows) over the worker pool and returns their points in cell
// order. Each cell owns its own network and RNG, so the points are
// bit-identical to running the cells one after another. The first cell failure
// — a cell's own error, cancellation, or a panic, captured per cell — is
// returned, wrapped in that cell's name, alongside whatever completed.
func RunCells[P any](ctx context.Context, cells []experiment.Cell[P], o Options) ([]P, error) {
	tr := newTracker(len(cells), o.workers(), o.Progress)
	outs := mapPool(ctx, o.workers(), cells, func(ctx context.Context, _ int, c experiment.Cell[P]) (pt P, err error) {
		defer func() {
			jr := JobResult{}
			if err != nil {
				jr.Err = err.Error()
			}
			tr.finish(&jr)
		}()
		return c.Run(ctx)
	})
	points := make([]P, len(cells))
	var err error
	for i, out := range outs {
		points[i] = out.Value
		if out.Err != nil && err == nil {
			err = fmt.Errorf("%s: %w", cells[i].Name, out.Err)
		}
	}
	return points, err
}
