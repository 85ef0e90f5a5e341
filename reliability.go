package frfc

import "frfc/internal/experiment"

// ReliabilityScenario names one hard-fault schedule of a ReliabilitySweep:
// Name labels the row and Events are the scheduled faults, as ParseScenario
// reads them from the scenario grammar — semicolon-separated events "down A-B
// @C" (sever the link between neighbor nodes A and B at cycle C), "up A-B @C"
// (restore it), and "kill N @C" (permanently fail node N's router).
type ReliabilityScenario = experiment.ReliabilityScenario

// ReliabilityPoint is one row of a ReliabilitySweep: one scenario run to
// full resolution, with graceful-degradation measurements split around the
// outage. The phase means split AvgLatency at the first fault and after the
// last scheduled event settles; LatencyRecovery is PostRecoveryLatency over
// PreFaultLatency — 1.0 is full recovery, 0 means a phase delivered nothing.
type ReliabilityPoint = experiment.ReliabilityPoint

// ReliabilitySweepOptions parameterizes a ReliabilitySweep: the
// ResolveOptions, the RetryLimit every row runs with and the Scenarios swept.
// Zero fields take defaults: the ResolveOptions defaults (600 packets per
// row), retry budget 8, and the standard scenario set (healthy baseline,
// permanent link outage, repaired link outage, router killed). Every row runs
// fault-aware table routing, so the healthy baseline compares with the fault
// rows.
type ReliabilitySweepOptions = experiment.ReliabilitySweepOptions

// ReliabilitySweep measures graceful degradation under scheduled hard
// faults: each scenario severs links or kills routers mid-run while the
// network reroutes around the damage and end-to-end retry recovers the
// destroyed in-flight flits. Still-connected traffic is delivered in full,
// disconnected traffic fails fast as unreachable, and after a repair the
// latency returns to its pre-fault level — the LatencyRecovery column.
// The rows execute concurrently on the harness worker pool; the points are
// identical to a serial sweep. A scenario that does not fit the mesh is the
// returned error, which names it.
func ReliabilitySweep(o ReliabilitySweepOptions) ([]ReliabilityPoint, error) {
	return sweepCells(o.Workers, o.Cells())
}
