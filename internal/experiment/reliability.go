package experiment

import (
	"context"
	"fmt"

	"frfc/internal/core"
	"frfc/internal/sim"
	"frfc/internal/stats"
	"frfc/internal/topology"
)

// ReliabilityScenario is one named hard-fault schedule a reliability sweep
// runs: scheduled link and router outages applied to a flit-reservation
// network mid-run.
type ReliabilityScenario struct {
	Name   string
	Events []core.FaultEvent
}

// ReliabilityPoint is one row of a reliability sweep: one scenario run to full
// resolution, with graceful-degradation measurements split around the outage.
type ReliabilityPoint struct {
	Scenario   string
	RetryLimit int
	Resolved

	// The phase means split AvgLatency at the first fault and at the settle
	// point after the last scheduled event: PreFault is healthy operation,
	// Outage covers the degraded window, PostRecovery is after the topology
	// healed (0 when a phase delivered nothing).
	PreFaultLatency     float64
	OutageLatency       float64
	PostRecoveryLatency float64
	// LatencyRecovery is PostRecoveryLatency over PreFaultLatency: 1.0 is
	// full recovery, above 1 residual degradation, 0 when either phase is
	// empty.
	LatencyRecovery float64
}

// String renders the point as one sweep row.
func (p ReliabilityPoint) String() string {
	rec := "-"
	if p.LatencyRecovery > 0 {
		rec = fmt.Sprintf("%.2f", p.LatencyRecovery)
	}
	return fmt.Sprintf("%-12s delivered=%5.1f%%  unreachable=%3d  dropped=%4d  retried=%4d  latency=%8.2f  recovery=%s",
		p.Scenario, p.DeliveredFraction()*100, p.Unreachable, p.DroppedFlits, p.Retried, p.AvgLatency, rec)
}

// ReliabilitySweepOptions parameterizes a reliability sweep (600 packets per
// row by default, so traffic spans the scenario's events). Every row runs
// fault-aware table routing — the scenarios need it, and the healthy baseline
// runs it too so that rows compare — and its post-recovery phase begins
// settleCycles after the last scheduled event.
type ReliabilitySweepOptions struct {
	ResolveOptions
	// RetryLimit is the end-to-end retry budget (default 8; router outages
	// require retry, so 0 is rejected by scenario validation).
	RetryLimit int
	// Scenarios are the rows (default: healthy baseline, single link down,
	// link down with repair, router down). Nil selects the defaults.
	Scenarios []ReliabilityScenario
}

// settleCycles pads the post-recovery phase boundary past the last scheduled
// event, so recovery transients are not measured as steady state.
const settleCycles = 500

func (o ReliabilitySweepOptions) withDefaults() ReliabilitySweepOptions {
	o.ResolveOptions = o.ResolveOptions.withDefaults(600, 0x0F417)
	if o.RetryLimit == 0 {
		o.RetryLimit = 8
	}
	if o.Scenarios == nil {
		o.Scenarios = DefaultReliabilityScenarios(o.Radix)
	}
	return o
}

// DefaultReliabilityScenarios builds the standard rows for a k×k mesh: a
// healthy baseline, a permanent central link outage, the same outage repaired
// mid-run, and a central router killed outright. Event cycles sit inside the
// default offering window so every scenario bites live traffic.
func DefaultReliabilityScenarios(radix int) []ReliabilityScenario {
	mesh := topology.NewMesh(radix)
	c := topology.NodeID((radix/2)*radix + radix/2 - 1)
	e, ok := mesh.Neighbor(c, topology.East)
	if !ok {
		panic("experiment: mesh too small for the default reliability scenarios")
	}
	return []ReliabilityScenario{
		{Name: "healthy"},
		{Name: "link-down", Events: []core.FaultEvent{
			{At: 400, Kind: core.LinkDown, A: c, B: e},
		}},
		{Name: "link-flap", Events: []core.FaultEvent{
			{At: 400, Kind: core.LinkDown, A: c, B: e},
			{At: 900, Kind: core.LinkUp, A: c, B: e},
		}},
		{Name: "router-down", Events: []core.FaultEvent{
			{At: 400, Kind: core.RouterDown, A: c},
		}},
	}
}

// Cells enumerates the reliability sweep, which measures graceful degradation
// under hard faults: each scenario runs the FR6 network with fault-aware table
// routing and end-to-end retry until every offered packet's fate is resolved.
// It is the experiment behind the hard-fault tolerance claim: still-connected
// traffic keeps being delivered (retries absorb the destroyed in-flight
// flits), disconnected traffic fails fast as unreachable instead of burning
// the retry budget, and after a repair the latency returns to its pre-fault
// level. A cell whose scenario does not validate against the mesh fails with
// an error naming it.
func (o ReliabilitySweepOptions) Cells() []Cell[ReliabilityPoint] {
	o = o.withDefaults()
	cells := make([]Cell[ReliabilityPoint], 0, len(o.Scenarios))
	for _, sc := range o.Scenarios {
		cells = append(cells, Cell[ReliabilityPoint]{
			Name: fmt.Sprintf("reliability scenario %q", sc.Name),
			Run:  func(ctx context.Context) (ReliabilityPoint, error) { return o.run(ctx, sc) },
		})
	}
	return cells
}

func (o ReliabilitySweepOptions) run(ctx context.Context, sc ReliabilityScenario) (ReliabilityPoint, error) {
	if err := core.ValidateFaults(topology.NewMesh(o.Radix), sc.Events, o.RetryLimit > 0); err != nil {
		return ReliabilityPoint{}, err // the cell's name names the scenario
	}
	// Phase boundaries: healthy operation ends at the first scheduled event;
	// the post-recovery phase begins a settle margin after the last one.
	var phases *stats.PhaseLatency
	var delivered func(now, latency sim.Cycle)
	if len(sc.Events) > 0 {
		first := sc.Events[0].At
		last := sc.Events[len(sc.Events)-1].At
		phases = stats.NewPhaseLatency(first, last+settleCycles)
		delivered = phases.Record
	}
	s := o.spec()
	s.Faults, s.FR.RetryLimit, s.Routing = sc.Events, o.RetryLimit, "table"
	res, err := resolve(ctx, o.ResolveOptions, s, delivered)
	if err != nil {
		return ReliabilityPoint{}, err
	}
	pt := ReliabilityPoint{Scenario: sc.Name, RetryLimit: o.RetryLimit, Resolved: res}
	if phases != nil {
		pt.PreFaultLatency = phases.Mean(0)
		pt.OutageLatency = phases.Mean(1)
		pt.PostRecoveryLatency = phases.Mean(2)
		pt.LatencyRecovery = phases.RecoveryRatio()
	}
	return pt, nil
}
