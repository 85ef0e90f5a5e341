package frfc

import (
	"fmt"

	"frfc/internal/core"
	"frfc/internal/experiment"
)

// ReliabilityScenario names one hard-fault schedule of a ReliabilitySweep,
// written in the scenario grammar: semicolon-separated events "down A-B @C"
// (sever the link between neighbor nodes A and B at cycle C), "up A-B @C"
// (restore it), and "kill N @C" (permanently fail node N's router).
type ReliabilityScenario struct {
	Name     string
	Scenario string
}

// ReliabilityPoint is one row of a ReliabilitySweep: one scenario run to
// full resolution, with graceful-degradation measurements split around the
// outage. The phase means split AvgLatency at the first fault and after the
// last scheduled event settles; LatencyRecovery is PostRecoveryLatency over
// PreFaultLatency — 1.0 is full recovery, 0 means a phase delivered nothing.
type ReliabilityPoint = experiment.ReliabilityPoint

// ReliabilitySweepOptions parameterizes a ReliabilitySweep. Zero fields take
// defaults: the ResolveOptions defaults (600 packets per row), retry budget 8,
// fault-aware table routing, and the standard scenario set (healthy
// baseline, permanent link outage, repaired link outage, router killed).
type ReliabilitySweepOptions struct {
	ResolveOptions
	RetryLimit int
	// Routing names the routing algorithm every row runs ("table" by
	// default, so the healthy baseline is comparable to the fault rows).
	Routing string
	// Scenarios overrides the default rows; each entry's Scenario string
	// is parsed with the scenario grammar.
	Scenarios []ReliabilityScenario
}

// ReliabilitySweep measures graceful degradation under scheduled hard
// faults: each scenario severs links or kills routers mid-run while the
// network reroutes around the damage and end-to-end retry recovers the
// destroyed in-flight flits. Still-connected traffic is delivered in full,
// disconnected traffic fails fast as unreachable, and after a repair the
// latency returns to its pre-fault level — the LatencyRecovery column.
// The rows execute concurrently on the harness worker pool; the points are
// identical to a serial sweep. A malformed scenario string is an error.
func ReliabilitySweep(o ReliabilitySweepOptions) ([]ReliabilityPoint, error) {
	ro := experiment.ReliabilitySweepOptions{
		ResolveOptions: o.ResolveOptions, RetryLimit: o.RetryLimit, Routing: o.Routing,
	}
	if o.Scenarios != nil {
		ro.Scenarios = make([]experiment.ReliabilityScenario, len(o.Scenarios))
		for i, sc := range o.Scenarios {
			events, err := core.ParseScenario(sc.Scenario)
			if err != nil {
				return nil, fmt.Errorf("frfc: scenario %q: %w", sc.Name, err)
			}
			ro.Scenarios[i] = experiment.ReliabilityScenario{Name: sc.Name, Events: events}
		}
	}
	return sweepCells(o.Workers, ro.Cells())
}
