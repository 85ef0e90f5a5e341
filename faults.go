package frfc

import "frfc/internal/experiment"

// FaultPoint is one row of a FaultSweep: a flit-reservation network run at
// one data-flit loss rate (DataFaultRate, per flit per link) under one retry
// policy (RetryLimit; 0 is the detection-only arm) until every offered
// packet's fate was resolved.
type FaultPoint = experiment.FaultPoint

// FaultSweepOptions parameterizes a FaultSweep: the ResolveOptions, the
// RetryLimit of the retry arm and the loss Rates swept. Zero fields take
// defaults: the ResolveOptions defaults (400 packets per row), retry budget 8,
// and loss rates 0–20%.
type FaultSweepOptions = experiment.FaultSweepOptions

// FaultSweep measures end-to-end delivery under data-flit loss: each loss
// rate is run twice — detection only, and with the end-to-end retry layer —
// resolving every offered packet. With retries the delivered fraction stays
// at 100% through percent-level loss rates, at a latency cost the AvgLatency
// column exposes. The cells execute concurrently on the harness worker pool
// (Options.Workers); the points are identical to a serial sweep. A cell that
// cannot run (a negative RetryLimit, say) is the returned error, which names
// it.
func FaultSweep(o FaultSweepOptions) ([]FaultPoint, error) {
	return sweepCells(o.Workers, o.Cells())
}
