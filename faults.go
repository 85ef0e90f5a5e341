package frfc

import "frfc/internal/experiment"

// FaultPoint is one row of a FaultSweep: a flit-reservation network run at
// one data-flit loss rate (DataFaultRate, per flit per link) under one retry
// policy (RetryLimit; 0 is the detection-only arm) until every offered
// packet's fate was resolved.
type FaultPoint = experiment.FaultPoint

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
// (Options.Workers); the points are identical to a serial sweep. A cell that
// cannot run (a negative RetryLimit, say) is the returned error, which names
// it.
func FaultSweep(o FaultSweepOptions) ([]FaultPoint, error) {
	return sweepCells(o.ResolveOptions, experiment.FaultSweepOptions{
		ResolveOptions: o.internal(), RetryLimit: o.RetryLimit, Rates: o.Rates,
	}.Cells())
}
