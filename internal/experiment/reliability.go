package experiment

import (
	"frfc/internal/core"
	"frfc/internal/topology"
)

// ReliabilityScenario is one named hard-fault schedule a reliability sweep
// runs: scheduled link and router outages applied to a flit-reservation
// network mid-run.
type ReliabilityScenario struct {
	Name   string
	Events []core.FaultEvent
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

// Rows enumerates the reliability sweep, which measures graceful degradation
// under hard faults: each scenario, the row's name, runs the FR6 network with
// fault-aware table routing and end-to-end retry until every offered packet's
// fate is resolved, with its latency split into phases around the outage. It
// is the experiment behind the hard-fault tolerance claim: still-connected
// traffic keeps being delivered (retries absorb the destroyed in-flight
// flits), disconnected traffic fails fast as unreachable instead of burning
// the retry budget, and after a repair the latency returns to its pre-fault
// level. A row whose scenario does not validate against the mesh fails to
// resolve.
func (o ReliabilitySweepOptions) Rows() []Spec {
	o = o.withDefaults()
	rows := make([]Spec, 0, len(o.Scenarios))
	for _, sc := range o.Scenarios {
		s := o.spec()
		s.Name, s.Faults, s.FR.RetryLimit, s.Routing = sc.Name, sc.Events, o.RetryLimit, "table"
		rows = append(rows, s)
	}
	return rows
}
