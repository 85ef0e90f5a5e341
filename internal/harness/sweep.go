package harness

import (
	"context"
	"fmt"

	"frfc/internal/experiment"
)

// SweepSpecs runs every (spec, load) point and returns one result row per
// spec, loads in the given order — the parallel analog of calling
// experiment.Sweep once per spec, bit-identical to it.
func SweepSpecs(ctx context.Context, specs []experiment.Spec, loads []float64, o Options) ([][]JobResult, error) {
	jobs := make([]Job, 0, len(specs)*len(loads))
	for _, s := range specs {
		jobs = AppendJobs(jobs, s, loads)
	}
	flat, err := RunJobs(ctx, jobs, o)
	rows := make([][]JobResult, len(specs))
	for i := range specs {
		rows[i] = flat[i*len(loads) : (i+1)*len(loads)]
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
