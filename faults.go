package frfc

import (
	"context"

	"frfc/internal/experiment"
	"frfc/internal/harness"
)

// ResolveOptions are the options every resolved sweep shares: Radix, Packets,
// PacketLen, Check (every row under the per-cycle invariant checker) and
// Seed. Zero fields take defaults: a 4×4 mesh and 5-flit packets, 400 of them
// per row of a FaultSweep.
type ResolveOptions = experiment.ResolveOptions

// FaultPoint is one row of a FaultSweep: a flit-reservation network run at
// one data-flit loss rate (Spec.FR.DataFaultRate, per flit per link) under
// one retry policy (Spec.FR.RetryLimit; 0 is the detection-only arm) until
// every offered packet's fate was resolved. Its ledger — Offered, Delivered,
// Abandoned, LostDetected (loss events at destinations, per attempt under
// retry), Retried and the rest of the network's counts, AvgLatency over the
// packets that made it, Cycles, Wedged if the no-progress watchdog fired — and
// DeliveredFraction() are experiment.Resolved's.
type FaultPoint = experiment.Resolved

// FaultSweepOptions parameterizes a FaultSweep: the ResolveOptions, the
// RetryLimit of the retry arm and the loss Rates swept. Zero fields take
// defaults: the ResolveOptions defaults, retry budget 8, and loss rates 0–20%.
type FaultSweepOptions = experiment.FaultSweepOptions

// FaultSweep measures end-to-end delivery under data-flit loss: each loss
// rate is run twice — detection only, and with the end-to-end retry layer —
// resolving every offered packet. With retries the delivered fraction stays
// at 100% through percent-level loss rates, at a latency cost the AvgLatency
// column exposes. The rows execute concurrently on the harness worker pool,
// one worker per CPU; the points are identical to a serial sweep. A row that
// cannot run (a negative RetryLimit, say) is the returned error, which names
// it, alongside the rows that completed.
func FaultSweep(o FaultSweepOptions) ([]FaultPoint, error) {
	return harness.ResolveRows(context.Background(), o.Rows(), 0)
}
