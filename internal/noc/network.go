package noc

import (
	"frfc/internal/sim"
	"frfc/internal/topology"
)

// Hooks are the observation points a network reports through. Any field may
// be nil; use the call helpers, which are nil-safe.
type Hooks struct {
	// PacketDelivered fires once per packet when its last flit has been
	// ejected at the destination.
	PacketDelivered func(p *Packet, now sim.Cycle)
	// FlitInjected fires when a data flit enters the network at a source.
	FlitInjected func(now sim.Cycle)
	// FlitEjected fires when a data flit leaves the network at its
	// destination.
	FlitEjected func(now sim.Cycle)
	// FlitDropped fires when fault injection destroys a data flit on a
	// link.
	FlitDropped func(p *Packet, now sim.Cycle)
	// PacketLost fires when the destination detects that one of a
	// packet's flits will never arrive (an idle pattern where the
	// reassembly schedule expected data — the paper's Section 5 error
	// story). Without end-to-end retry it fires at most once per packet
	// and resolves the packet's fate; with retry enabled it fires once per
	// lost transmission attempt and triggers a retransmission instead.
	PacketLost func(p *Packet, now sim.Cycle)
	// PacketRetried fires when a source network interface re-offers a
	// packet after a loss notification or retry timeout; p.Attempts has
	// already been incremented to the new attempt number.
	PacketRetried func(p *Packet, now sim.Cycle)
	// PacketAbandoned fires when a source exhausts its retry budget for a
	// packet; the packet's fate is resolved as undeliverable.
	PacketAbandoned func(p *Packet, now sim.Cycle)
	// PacketUnreachable fires when a source interface fails a packet fast
	// because no route to its destination exists over the surviving
	// topology (a hard fault disconnected the pair or killed one of its
	// endpoints). It resolves the packet's fate without burning the retry
	// budget; if the topology later heals, subsequent packets between the
	// pair flow again.
	PacketUnreachable func(p *Packet, now sim.Cycle)
	// CtrlFlitCorrupted fires when fault injection corrupts a control flit
	// on an inter-router control link; the flit is recovered by link-level
	// detection-and-retransmission, so the event costs latency but never
	// loses information.
	CtrlFlitCorrupted func(now sim.Cycle)
	// FlitCorrupted fires when a link bit error delivers a flit (data or
	// control) with damaged payload — corruption as delivery, not loss.
	FlitCorrupted func(now sim.Cycle)
	// CorruptionDetected fires when a receiver's modeled hop-level CRC
	// catches a corrupted flit; the flit is then discarded into the loss
	// path (flit reservation) or repaired by modeled link retransmission
	// (the baselines, which have no loss tolerance).
	CorruptionDetected func(now sim.Cycle)
	// CorruptionEscaped fires when corrupted payload reaches its
	// destination undetected by every hop CRC — the silent-corruption
	// event the end-to-end check exists to catch. It fires whether or not
	// the end-to-end check then rejects the packet.
	CorruptionEscaped func(p *Packet, now sim.Cycle)
	// Wedged fires when the network's no-progress watchdog trips: packets
	// are in flight, no recovery action is pending, and no flit has moved
	// for the configured number of cycles. The snapshot is a rendered
	// diagnostic naming the stalled routers and their control, buffer, and
	// reservation state.
	Wedged func(now sim.Cycle, snapshot string)
}

// Delivered invokes PacketDelivered if set.
func (h *Hooks) Delivered(p *Packet, now sim.Cycle) {
	if h != nil && h.PacketDelivered != nil {
		h.PacketDelivered(p, now)
	}
}

// Injected invokes FlitInjected if set.
func (h *Hooks) Injected(now sim.Cycle) {
	if h != nil && h.FlitInjected != nil {
		h.FlitInjected(now)
	}
}

// Ejected invokes FlitEjected if set.
func (h *Hooks) Ejected(now sim.Cycle) {
	if h != nil && h.FlitEjected != nil {
		h.FlitEjected(now)
	}
}

// Dropped invokes FlitDropped if set.
func (h *Hooks) Dropped(p *Packet, now sim.Cycle) {
	if h != nil && h.FlitDropped != nil {
		h.FlitDropped(p, now)
	}
}

// Lost invokes PacketLost if set.
func (h *Hooks) Lost(p *Packet, now sim.Cycle) {
	if h != nil && h.PacketLost != nil {
		h.PacketLost(p, now)
	}
}

// Retried invokes PacketRetried if set.
func (h *Hooks) Retried(p *Packet, now sim.Cycle) {
	if h != nil && h.PacketRetried != nil {
		h.PacketRetried(p, now)
	}
}

// Abandoned invokes PacketAbandoned if set.
func (h *Hooks) Abandoned(p *Packet, now sim.Cycle) {
	if h != nil && h.PacketAbandoned != nil {
		h.PacketAbandoned(p, now)
	}
}

// Unreachable invokes PacketUnreachable if set.
func (h *Hooks) Unreachable(p *Packet, now sim.Cycle) {
	if h != nil && h.PacketUnreachable != nil {
		h.PacketUnreachable(p, now)
	}
}

// CtrlCorrupted invokes CtrlFlitCorrupted if set.
func (h *Hooks) CtrlCorrupted(now sim.Cycle) {
	if h != nil && h.CtrlFlitCorrupted != nil {
		h.CtrlFlitCorrupted(now)
	}
}

// Corrupted invokes FlitCorrupted if set.
func (h *Hooks) Corrupted(now sim.Cycle) {
	if h != nil && h.FlitCorrupted != nil {
		h.FlitCorrupted(now)
	}
}

// CrcDetected invokes CorruptionDetected if set.
func (h *Hooks) CrcDetected(now sim.Cycle) {
	if h != nil && h.CorruptionDetected != nil {
		h.CorruptionDetected(now)
	}
}

// CorruptEscape invokes CorruptionEscaped if set.
func (h *Hooks) CorruptEscape(p *Packet, now sim.Cycle) {
	if h != nil && h.CorruptionEscaped != nil {
		h.CorruptionEscaped(p, now)
	}
}

// Wedge invokes Wedged if set.
func (h *Hooks) Wedge(now sim.Cycle, snapshot string) {
	if h != nil && h.Wedged != nil {
		h.Wedged(now, snapshot)
	}
}

// Network is the common surface the experiment harness drives. All six
// fabrics implement it: flit reservation (internal/core), virtual channels
// (internal/vcrouter) and wormhole (internal/wormhole, a vcrouter
// configuration), store-and-forward and virtual cut-through (the two modes of
// internal/packetswitch), and circuit switching (internal/circuit).
type Network interface {
	// Reset returns the network to exactly the state its constructor left
	// it in for the given seed and hooks (nil for none): every queue, ring,
	// table, counter and fault left by an earlier run is cleared, every
	// random stream restarts where that seed puts it, and no probe is
	// attached. Constructors are "allocate, then Reset", so a reset network
	// and a new one run cycle for cycle alike; what a reset keeps is the
	// capacity its lazily grown structures had reached.
	Reset(seed uint64, hooks *Hooks)
	// Offer places a freshly generated packet in its source's injection
	// queue. The packet's Src field selects the queue.
	Offer(p *Packet)
	// Tick advances the whole network by one cycle.
	Tick(now sim.Cycle)
	// SourceQueueLen reports the total number of packets waiting in
	// source queues, the quantity whose stabilization ends warm-up.
	SourceQueueLen() int
	// InFlightPackets reports packets offered but not yet fully
	// delivered (including those still queued at sources).
	InFlightPackets() int
	// BufferUsage reports the number of occupied data-flit buffers and
	// the total data-flit buffer capacity across the given router's
	// input ports.
	BufferUsage(id topology.NodeID) (used, capacity int)
	// PoolUsage reports the occupancy and capacity of one input port's
	// buffer pool on the given router — the granularity at which
	// Section 4.2 of the paper tracks occupancy ("a specific buffer
	// pool of a router in the middle of the mesh").
	PoolUsage(id topology.NodeID, port topology.Port) (used, capacity int)
}
