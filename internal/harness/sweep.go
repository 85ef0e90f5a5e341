package harness

import (
	"context"
	"fmt"

	"frfc/internal/experiment"
)

// RunCells fans the cells of a resolved sweep (or any other enumeration of
// independent rows) over a pool of workers (0 means runtime.NumCPU()) and
// returns their points in cell order. Each cell owns its own network and RNG,
// so the points are bit-identical to running the cells one after another. The
// first cell failure — a cell's own error, cancellation, or a panic, captured
// per cell — is returned, wrapped in that cell's name, alongside whatever
// completed.
func RunCells[P any](ctx context.Context, cells []experiment.Cell[P], workers int) ([]P, error) {
	outs := mapPool(ctx, Options{Workers: workers}.workers(), cells, func(ctx context.Context, _ int, c experiment.Cell[P]) (P, error) {
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
