package metrics

import (
	"frfc/internal/profile"
	"frfc/internal/sim"
	"frfc/internal/topology"
	"frfc/internal/trace"
	"frfc/internal/waterfall"
)

// Probe is the instrumentation point handed to a fabric. Any part may be
// absent: Reg collects counters and gauges, Tracer records flit-level
// events, Prof accounts the simulator's own activity (ticks, idle fractions,
// phase attribution), WF attributes per-packet latency to lifecycle stages.
// All methods are no-ops on a nil *Probe — fabrics hold a concrete *Probe
// (not an interface), so the disabled path is one nil test with no dynamic
// dispatch and no allocation.
type Probe struct {
	Reg    *Registry
	Tracer *trace.Tracer
	Prof   *profile.Registry
	WF     *waterfall.Ledger
}

// NewProbe builds the probe one run carries: a counter registry when counters
// is set, a self-profiling registry when prof, a stage ledger when wf, the two
// registries sampling every epoch cycles (non-positive = their default). It is
// the one place a run's collectors are assembled from the switches callers
// hold; a tracer, which only a single observed run wants, is the caller's to
// attach. With every switch off the probe is empty and costs a run nothing.
func NewProbe(epoch sim.Cycle, counters, prof, wf bool) *Probe {
	p := &Probe{}
	if counters {
		p.Reg = NewRegistry(epoch)
	}
	if prof {
		p.Prof = profile.NewRegistry(epoch)
	}
	if wf {
		p.WF = waterfall.New()
	}
	return p
}

// Enabled reports whether the probe collects anything at all.
func (p *Probe) Enabled() bool {
	return p != nil && (p.Reg != nil || p.Tracer != nil || p.Prof != nil || p.WF != nil)
}

// Init sizes the registries for a k×k mesh; safe to call on any probe.
func (p *Probe) Init(radix int) {
	if p == nil {
		return
	}
	if p.Reg != nil {
		p.Reg.Init(radix)
	}
	if p.Prof != nil {
		p.Prof.Init(radix)
	}
}

// Profile returns the self-profiling registry, nil when profiling is off.
// Fabrics cache the result at attach time so the per-tick cost of disabled
// profiling is a nil test on a concrete *profile.Registry.
func (p *Probe) Profile() *profile.Registry {
	if p == nil {
		return nil
	}
	return p.Prof
}

// Waterfall returns the latency-stage ledger, nil when latency provenance is
// off. Fabrics cache the result at attach time so the per-event cost of the
// disabled waterfall is a nil test on a concrete *waterfall.Ledger.
func (p *Probe) Waterfall() *waterfall.Ledger {
	if p == nil {
		return nil
	}
	return p.WF
}

// SampleDue reports whether occupancy gauges should be sampled this cycle.
func (p *Probe) SampleDue(now sim.Cycle) bool {
	return p != nil && p.Reg != nil && p.Reg.Epoch > 0 && now%p.Reg.Epoch == 0
}

// Occupancy records one epoch sample of an input port's buffer usage.
func (p *Probe) Occupancy(node int, port int, used, capacity int) {
	if p == nil || p.Reg == nil {
		return
	}
	p.Reg.At(node).Occ[port].Sample(used, capacity)
}

// ReserveHit records a successful reservation at node's output port: the
// control flit found departure slots and admitted its leads. depart is the
// earliest reserved departure cycle.
func (p *Probe) ReserveHit(now sim.Cycle, node, port int, pkt uint64, depart sim.Cycle) {
	if p == nil {
		return
	}
	if p.Reg != nil {
		p.Reg.At(node).ResHits++
	}
	p.Tracer.Record(trace.Event{
		Cycle: now, Kind: trace.KindReserve, Node: int32(node), Port: int8(port),
		Packet: pkt, Arg: int64(depart),
	})
}

// ReserveMiss records a reservation attempt that found no feasible slot.
func (p *Probe) ReserveMiss(node, port int) {
	if p == nil || p.Reg == nil {
		return
	}
	p.Reg.At(node).ResMisses++
}

// Late records a data flit arriving ahead of its reservation and parking.
func (p *Probe) Late(now sim.Cycle, node, port int, pkt uint64, seq int) {
	if p == nil {
		return
	}
	if p.Reg != nil {
		p.Reg.At(node).LateReservations++
	}
	p.Tracer.Record(trace.Event{
		Cycle: now, Kind: trace.KindPark, Node: int32(node), Port: int8(port),
		Packet: pkt, Seq: int32(seq),
	})
}

// ArbConflict records an arbitration loss at node for an output port.
func (p *Probe) ArbConflict(node, port int) {
	if p == nil || p.Reg == nil {
		return
	}
	p.Reg.At(node).ArbConflicts++
}

// CreditStall records a cycle in which a ready flit could not advance for
// lack of downstream credit or link bandwidth.
func (p *Probe) CreditStall(node, port int) {
	if p == nil || p.Reg == nil {
		return
	}
	p.Reg.At(node).CreditStalls++
}

// Route records a routing decision: pkt at node was steered to output out.
func (p *Probe) Route(now sim.Cycle, node, out int, pkt uint64) {
	if p == nil || p.Tracer == nil {
		return
	}
	p.Tracer.Record(trace.Event{
		Cycle: now, Kind: trace.KindRoute, Node: int32(node), Port: int8(out), Packet: pkt,
	})
}

// Inject records a data flit entering the network at node's NI.
func (p *Probe) Inject(now sim.Cycle, node int, pkt uint64, seq int) {
	if p == nil {
		return
	}
	if p.Reg != nil {
		p.Reg.At(node).Injected++
	}
	p.Tracer.Record(trace.Event{
		Cycle: now, Kind: trace.KindInject, Node: int32(node), Port: int8(topology.Local),
		Packet: pkt, Seq: int32(seq),
	})
}

// Eject records a data flit delivered to node's sink.
func (p *Probe) Eject(now sim.Cycle, node int, pkt uint64, seq int) {
	if p == nil {
		return
	}
	if p.Reg != nil {
		p.Reg.At(node).Ejected++
	}
	p.Tracer.Record(trace.Event{
		Cycle: now, Kind: trace.KindEject, Node: int32(node), Port: int8(topology.Local),
		Packet: pkt, Seq: int32(seq),
	})
}

// Traverse records a data flit crossing node's output link out.
func (p *Probe) Traverse(now sim.Cycle, node, out int, pkt uint64, seq int) {
	if p == nil {
		return
	}
	if p.Reg != nil {
		p.Reg.At(node).Links[out].Flits++
	}
	p.Tracer.Record(trace.Event{
		Cycle: now, Kind: trace.KindTraverse, Node: int32(node), Port: int8(out),
		Packet: pkt, Seq: int32(seq),
	})
}

// CtrlForward records a control flit crossing node's output link out.
func (p *Probe) CtrlForward(node, out int) {
	if p == nil || p.Reg == nil {
		return
	}
	p.Reg.At(node).Links[out].Ctrl++
}

// Retry records node's NI issuing an end-to-end retransmission of pkt.
func (p *Probe) Retry(now sim.Cycle, node int, pkt uint64, attempt int) {
	if p == nil {
		return
	}
	if p.Reg != nil {
		p.Reg.At(node).Retries++
	}
	p.Tracer.Record(trace.Event{
		Cycle: now, Kind: trace.KindRetry, Node: int32(node), Port: -1,
		Packet: pkt, Attempt: uint8(attempt),
	})
}

// Nack records a loss detection (hole in the delivered sequence) at node.
func (p *Probe) Nack(node int) {
	if p == nil || p.Reg == nil {
		return
	}
	p.Reg.At(node).Nacks++
}

// Corrupt records a corrupted flit (data or control) arriving at node — a
// bit-errored delivery, counted whether or not the hop CRC catches it.
func (p *Probe) Corrupt(node int) {
	if p == nil || p.Reg == nil {
		return
	}
	p.Reg.At(node).Corrupt++
}

// Unreachable records node's NI failing a packet fast because a hard fault
// disconnected its destination.
func (p *Probe) Unreachable(node int) {
	if p == nil || p.Reg == nil {
		return
	}
	p.Reg.At(node).Unreachable++
}

// Wedge records the watchdog declaring the network wedged.
func (p *Probe) Wedge(now sim.Cycle) {
	if p == nil || p.Tracer == nil {
		return
	}
	p.Tracer.Record(trace.Event{Cycle: now, Kind: trace.KindWedge, Port: -1})
}

// Attachable is implemented by networks that accept a probe after
// construction. Attaching nil detaches.
type Attachable interface {
	AttachProbe(*Probe)
}
