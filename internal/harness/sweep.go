package harness

import (
	"context"
	"fmt"

	"frfc/internal/experiment"
)

// ResolveRows resolves the rows of a resolved sweep (experiment.Resolve) on a
// pool of workers (0 means runtime.NumCPU()) and returns their points in row
// order. Each row owns its own network and RNG, so the points are
// bit-identical to resolving the rows one after another. The first failure —
// a row's own error, cancellation, or a panic, captured per row — is
// returned, wrapped in that row's name, alongside whatever completed.
func ResolveRows(ctx context.Context, rows []experiment.Spec, workers int) ([]experiment.Resolved, error) {
	outs := mapPool(ctx, Options{Workers: workers}.workers(), rows, func(ctx context.Context, _ int, s experiment.Spec) (experiment.Resolved, error) {
		return experiment.Resolve(ctx, s)
	})
	points := make([]experiment.Resolved, len(rows))
	var err error
	for i, out := range outs {
		points[i] = out.Value
		if out.Err != nil && err == nil {
			err = fmt.Errorf("row %q: %w", rows[i].Name, out.Err)
		}
	}
	return points, err
}
