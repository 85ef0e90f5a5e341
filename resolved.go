package frfc

import (
	"context"

	"frfc/internal/experiment"
	"frfc/internal/harness"
)

// ResolveOptions are the options the four resolved sweeps — FaultSweep,
// ReliabilitySweep, IntegritySweep and ChaosSweep — share: Radix, Packets,
// PacketLen, Check (every row under the per-cycle invariant checker), Seed,
// and Workers, the pool the rows fan out over (0 means runtime.NumCPU(); any
// worker count produces identical points in identical order). Zero fields
// take defaults: a 4×4 mesh and 5-flit packets, 400 of them per row in the
// fault and integrity sweeps and 600 in the reliability and chaos sweeps.
type ResolveOptions = experiment.ResolveOptions

// Resolved is the ledger every row of a resolved sweep reports once the fate
// of each offered packet is known: the network's counts (Offered,
// Delivered, Abandoned, LostDetected, Unreachable, Retried,
// DeliveredAfterRetry, DroppedFlits, CtrlCorrupted, and the corruption ledger
// CorruptedFlits, CrcDetected, CorruptEscapes, PhantomReservations,
// ReclaimedSlots), AvgLatency over the packets that made it, the Cycles the
// row took, Wedged if the no-progress watchdog fired, and
// DeliveredFraction().
type Resolved = experiment.Resolved

// sweepCells runs a resolved sweep's cells on a pool of workers; the error is
// the first failed cell's, returned alongside the rows that completed.
func sweepCells[P any](workers int, cells []experiment.Cell[P]) ([]P, error) {
	return harness.RunCells(context.Background(), cells, workers)
}
