package frfc

import (
	"fmt"

	"frfc/internal/experiment"
)

// FaultPoint is one row of a FaultSweep: a flit-reservation network run at
// one data-flit loss rate under one retry policy until every offered packet's
// fate was resolved.
type FaultPoint struct {
	// DataFaultRate is the per-flit per-link loss probability of the row.
	DataFaultRate float64
	// RetryLimit is the retry budget the row ran with; 0 is the
	// detection-only arm, where a lost packet stays lost.
	RetryLimit int
	Resolved
}

// String renders the point as one sweep row.
func (p FaultPoint) String() string {
	policy := "detect-only"
	if p.RetryLimit > 0 {
		policy = fmt.Sprintf("retry<=%d", p.RetryLimit)
	}
	return fmt.Sprintf("loss=%5.1f%%  %-11s delivered=%5.1f%%  retried=%4d  abandoned=%3d  latency=%8.2f",
		p.DataFaultRate*100, policy, p.DeliveredFraction()*100, p.Retried, p.Abandoned, p.AvgLatency)
}

// FaultSweepOptions parameterizes a FaultSweep. Zero fields take defaults:
// the ResolveOptions defaults (400 packets per row), retry budget 8, and loss
// rates 0–20%.
type FaultSweepOptions struct {
	ResolveOptions
	RetryLimit int
	Rates      []float64
}

// FaultSweep measures end-to-end delivery under data-flit loss: each loss
// rate is run twice — detection only, and with the end-to-end retry layer —
// resolving every offered packet. With retries the delivered fraction stays
// at 100% through percent-level loss rates, at a latency cost the AvgLatency
// column exposes. The cells execute concurrently on the harness worker pool
// (Options.Workers); the points are identical to a serial sweep.
func FaultSweep(o FaultSweepOptions) []FaultPoint {
	cells := experiment.FaultSweepOptions{
		ResolveOptions: o.internal(), RetryLimit: o.RetryLimit, Rates: o.Rates,
	}.Cells()
	pts, _ := sweepCells(o.ResolveOptions, cells, func(p experiment.FaultPoint) FaultPoint {
		return FaultPoint{DataFaultRate: p.DataFaultRate, RetryLimit: p.RetryLimit, Resolved: resolvedOf(p.Resolved)}
	})
	return pts
}
