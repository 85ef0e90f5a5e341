package experiment

import (
	"context"
	"fmt"

	"frfc/internal/core"
	"frfc/internal/noc"
	"frfc/internal/sim"
	"frfc/internal/stats"
	"frfc/internal/topology"
)

// ResolveOptions are the options every resolved sweep — fault, reliability,
// integrity, chaos — shares. Zero fields take the sweep's defaults.
type ResolveOptions struct {
	// Radix is the mesh radix (default 4).
	Radix int
	// Packets per row (default 400 for the fault and integrity sweeps, 600
	// for the reliability and chaos sweeps, whose traffic must span the
	// scheduled events) of PacketLen flits (default 5), offered one every
	// three cycles.
	Packets   int
	PacketLen int
	// Check enables the runtime invariant checker for every row.
	Check bool
	// Seed drives the network and workload RNGs (default fixed per sweep).
	Seed uint64
}

// withDefaults fills the zero fields; packets and seed are the calling
// sweep's own defaults.
func (o ResolveOptions) withDefaults(packets int, seed uint64) ResolveOptions {
	if o.Radix == 0 {
		o.Radix = 4
	}
	if o.Packets == 0 {
		o.Packets = packets
	}
	if o.PacketLen == 0 {
		o.PacketLen = 5
	}
	if o.Seed == 0 {
		o.Seed = seed
	}
	return o
}

// spec is the row every resolved sweep sets its own fields on: FR6 under fast
// control at the options' radix, seed, packet length and checker, offering
// o.Packets packets, with the no-progress watchdog armed. o must have its
// defaults filled.
func (o ResolveOptions) spec() Spec {
	s := FR6(FastControl, o.PacketLen)
	s.MeshRadix, s.Seed, s.Check, s.SamplePackets = o.Radix, o.Seed, o.Check, o.Packets
	s.FR.WatchdogCycles = 50000
	return s
}

// Resolved is what one row of a resolved sweep reports once every offered
// packet's fate is known: the row as it ran, the recovery layer's ledger, and
// how the run went. Of the ledger, Abandoned (packets given up on after
// exhausting the retry budget) should stay zero under hard faults and under
// corruption: losses either recover through retry or the hop CRC's loss path,
// or fail fast as Unreachable.
type Resolved struct {
	// Spec is the row, normalized: its Name names it, and its fields are the
	// labels a table prints beside the ledger.
	Spec Spec
	// Events are the fault events scheduled on the row: its scenario
	// (Spec.Faults) or the plan its chaos campaign expanded to.
	Events []core.FaultEvent
	noc.Counts
	// AvgLatency is the mean creation-to-delivery latency of the packets
	// that made it, in cycles; retries inflate it.
	AvgLatency float64
	// Cycles is how long the run took to resolve everything.
	Cycles int64
	// Wedged is set if the no-progress watchdog fired — it never should.
	Wedged bool

	// The phase means of a row with a scenario split AvgLatency at its first
	// fault and at the settle point after its last: PreFault is healthy
	// operation, Outage covers the degraded window, PostRecovery is after
	// the topology healed (0 when a phase delivered nothing, and on a row
	// without a scenario).
	PreFaultLatency     float64
	OutageLatency       float64
	PostRecoveryLatency float64
	// LatencyRecovery is PostRecoveryLatency over PreFaultLatency: 1.0 is
	// full recovery, above 1 residual degradation, 0 when either phase is
	// empty.
	LatencyRecovery float64
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

// settleCycles pads the post-recovery phase boundary past a scenario's last
// scheduled event, so recovery transients are not measured as steady state.
const settleCycles = 500

// Resolve is the kernel behind every resolved sweep: the network of s offered
// s.SamplePackets uniform-random packets, one every three cycles, then ticked
// until every packet's fate is resolved. A scenario (s.Faults) that does not
// validate against the mesh is an error before anything runs. Rows are
// independent — each takes its own network and seeds its own RNG from s — so
// they may resolve concurrently. Resolve polls ctx every 1024 cycles; a
// cancelled row returns ctx.Err() with a zero Resolved.
func Resolve(ctx context.Context, s Spec) (Resolved, error) {
	s = s.withDefaults()
	if s.PacketLen < 1 || s.PacketLen > noc.MaxLen {
		panic(fmt.Sprintf("experiment: packet length %d outside [1, %d] flits", s.PacketLen, noc.MaxLen))
	}
	mesh := topology.NewMesh(s.MeshRadix)
	res := Resolved{Spec: s, Events: s.Faults}
	// Phase boundaries: healthy operation ends at the first scheduled event;
	// the post-recovery phase begins a settle margin after the last one.
	var phases *stats.PhaseLatency
	if len(s.Faults) > 0 {
		if err := core.ValidateFaults(mesh, s.Faults, s.FR.RetryLimit > 0); err != nil {
			return Resolved{}, err
		}
		phases = stats.NewPhaseLatency(s.Faults[0].At, s.Faults[len(s.Faults)-1].At+settleCycles)
	}
	if s.ChaosIntensity > 0 {
		res.Events = s.chaosPlan().Events
	}
	lat := stats.NewLatencyStats()
	hooks := &noc.Hooks{
		PacketDelivered: func(p *noc.Packet, now sim.Cycle) {
			lat.Record(now - p.CreatedAt)
			if phases != nil {
				phases.Record(now, now-p.CreatedAt)
			}
		},
		Wedged: func(now sim.Cycle, snapshot string) { res.Wedged = true },
	}
	net, key := networks.acquire(s, hooks)

	rng := sim.NewRNG(s.Seed ^ 0x5DEECE66D)
	now := sim.Cycle(0)
	cancelled := func() bool {
		return now&1023 == 0 && ctx.Err() != nil
	}
	for i := 0; i < s.SamplePackets; i++ {
		if cancelled() {
			return Resolved{}, ctx.Err()
		}
		src := topology.NodeID(rng.Intn(mesh.N()))
		dst := topology.NodeID(rng.Intn(mesh.N() - 1))
		if dst >= src {
			dst++
		}
		net.Offer(&noc.Packet{ID: noc.PacketID(i + 1), Src: int32(src), Dst: int32(dst), Len: int32(s.PacketLen), CreatedAt: now})
		for j := 0; j < 3; j++ {
			net.Tick(now)
			now++
		}
	}
	// Resolve every packet; the bound is generous because exponential
	// backoff at high loss rates can stretch the tail.
	limit := now + 5000000
	for net.InFlightPackets() > 0 && now < limit {
		if cancelled() {
			return Resolved{}, ctx.Err()
		}
		net.Tick(now)
		now++
	}

	res.Counts = net.Counts()
	res.AvgLatency = lat.Mean()
	res.Cycles = int64(now)
	if phases != nil {
		res.PreFaultLatency = phases.Mean(0)
		res.OutageLatency = phases.Mean(1)
		res.PostRecoveryLatency = phases.Mean(2)
		res.LatencyRecovery = phases.RecoveryRatio()
	}
	networks.put(key, net, mesh.N())
	return res, nil
}
