package frfc

import "frfc/internal/experiment"

// ChaosPoint is one row of a ChaosSweep: a flit-reservation network run under
// a deterministically generated chaos campaign — composed soft loss, bit
// errors, link flaps, mid-run corruption spikes and (at high intensity)
// router kills — until every offered packet's fate is resolved. Events is how
// many scheduled fault events the campaign expanded to; of the ledger,
// Unreachable counts packets a router kill disconnected.
type ChaosPoint = experiment.ChaosPoint

// ChaosSweepOptions parameterizes a ChaosSweep: the ResolveOptions, the
// Intensities swept (each in (0, 1]; router kills only appear at intensity
// >= 0.75), the ChaosSeed that drives the plan generator (Seed drives the
// network and workload; each campaign's plan is a pure function of the
// options), and DisableE2E, which turns the end-to-end payload check off so
// escaped corruption is silently accepted instead of retried. Zero fields
// take defaults: the ResolveOptions defaults (600 packets per row),
// intensities {0.25, 0.5, 1.0}, and the end-to-end check on. Campaigns
// schedule their events over the offering window, three cycles per packet,
// plus 500 cycles.
type ChaosSweepOptions = experiment.ChaosSweepOptions

// ChaosSweep runs one deterministic chaos campaign per intensity against the
// flit-reservation network with end-to-end retry and reports how much traffic
// survived. At moderate intensity (no router kills) delivery stays total —
// every loss, flap and corruption is absorbed by hop CRCs, reservation-slot
// reclamation and retries — and at full intensity only traffic stranded by
// dead routers is written off, fast, as unreachable. The campaigns execute
// concurrently on the harness worker pool; the points are identical to a
// serial sweep.
func ChaosSweep(o ChaosSweepOptions) ([]ChaosPoint, error) {
	return sweepCells(o.Workers, o.Cells())
}
