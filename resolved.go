package frfc

import (
	"context"

	"frfc/internal/experiment"
	"frfc/internal/harness"
)

// ResolveOptions are the options the four resolved sweeps — FaultSweep,
// ReliabilitySweep, IntegritySweep and ChaosSweep — share. Zero fields take
// defaults: a 4×4 mesh and 5-flit packets, 400 of them per row in the fault
// and integrity sweeps and 600 in the reliability and chaos sweeps.
type ResolveOptions struct {
	Radix     int
	Packets   int
	PacketLen int
	// Check runs every row under the per-cycle invariant checker.
	Check bool
	Seed  uint64
	// Workers sizes the pool the sweep's rows fan out over; 0 means
	// runtime.NumCPU(). Each row owns its own network and RNG, so any
	// worker count produces identical points in identical order.
	Workers int
}

func (o ResolveOptions) internal() experiment.ResolveOptions {
	return experiment.ResolveOptions{
		Radix: o.Radix, Packets: o.Packets, PacketLen: o.PacketLen, Check: o.Check, Seed: o.Seed,
	}
}

// Resolved is the ledger every row of a resolved sweep reports once the fate
// of each offered packet is known.
type Resolved struct {
	Offered   int64
	Delivered int64
	// Abandoned counts packets given up on after exhausting the retry
	// budget. Under hard faults and under corruption it should stay zero:
	// losses either recover through retry (or the hop CRC's loss path) or
	// fail fast as Unreachable.
	Abandoned int64
	// LostDetected counts loss events at destinations — per transmission
	// attempt under retry, per packet without.
	LostDetected int64
	// Unreachable counts packets failed fast at the source because a fault
	// (a severed link, a killed router) disconnected their destination.
	Unreachable  int64
	DroppedFlits int64

	// Retried counts end-to-end retransmissions issued;
	// DeliveredAfterRetry counts packets whose delivering attempt was a
	// retry.
	Retried             int64
	DeliveredAfterRetry int64

	// The corruption ledger: flits delivered corrupted, corrupted flits the
	// hop CRC caught, corrupted payload that escaped every hop CRC to its
	// destination, phantom reservations installed by escaped-corrupt
	// control flits, and orphaned parked flits the reclamation timeout
	// freed.
	Corrupted           int64
	CrcDetected         int64
	CorruptEscapes      int64
	PhantomReservations int64
	ReclaimedSlots      int64

	// AvgLatency is the mean creation-to-delivery latency of the packets
	// that made it, in cycles; retries inflate it.
	AvgLatency float64
	// Cycles is how long the row took to resolve everything.
	Cycles int64
	// Wedged is set if the no-progress watchdog fired — it never should.
	Wedged bool
}

// DeliveredFraction is the end-to-end delivery probability of the row —
// delivered over offered, counting fast-failed unreachable packets against
// it.
func (r Resolved) DeliveredFraction() float64 {
	if r.Offered == 0 {
		return 0
	}
	return float64(r.Delivered) / float64(r.Offered)
}

func resolvedOf(r experiment.Resolved) Resolved {
	return Resolved{
		Offered: r.Offered, Delivered: r.Delivered, Abandoned: r.Abandoned,
		LostDetected: r.LostDetected, Unreachable: r.Unreachable, DroppedFlits: r.DroppedFlits,
		Retried: r.Retried, DeliveredAfterRetry: r.DeliveredAfterRetry,
		Corrupted: r.CorruptedFlits, CrcDetected: r.CrcDetected, CorruptEscapes: r.CorruptEscapes,
		PhantomReservations: r.PhantomReservations, ReclaimedSlots: r.ReclaimedSlots,
		AvgLatency: r.AvgLatency, Cycles: int64(r.Cycles), Wedged: r.Wedged,
	}
}

// sweepCells runs a resolved sweep's cells on the harness worker pool and
// converts each point to its public form; the error is the first failed
// cell's, returned alongside the rows that completed.
func sweepCells[P, Q any](o ResolveOptions, cells []experiment.Cell[P], public func(P) Q) ([]Q, error) {
	pts, err := harness.RunCells(context.Background(), cells, harness.Options{Workers: o.Workers})
	out := make([]Q, len(pts))
	for i, p := range pts {
		out[i] = public(p)
	}
	return out, err
}
