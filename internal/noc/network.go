package noc

import (
	"frfc/internal/sim"
	"frfc/internal/topology"
)

// Hooks are the observation points a caller of a network reads: the events a
// run's statistics, its sample's completion and its tests are made of. What a
// network counts for itself it keeps in its components and reports through
// Counts. Any field may be nil; use the call helpers, which are nil-safe.
type Hooks struct {
	// PacketDelivered fires once per packet when its last flit has been
	// ejected at the destination.
	PacketDelivered func(p *Packet, now sim.Cycle)
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

// Wedge invokes Wedged if set.
func (h *Hooks) Wedge(now sim.Cycle, snapshot string) {
	if h != nil && h.Wedged != nil {
		h.Wedged(now, snapshot)
	}
}

// Counts is a network's accounting of its run so far, the same struct for
// every fabric: each component tallies the events it sees and the network
// sums them when asked. A fabric without a mechanism leaves its counts zero —
// only flit reservation retries, loses or abandons packets, and only flit
// reservation and virtual channels model bit errors.
type Counts struct {
	// Offered, Delivered and Abandoned satisfy, once the network drains,
	// Offered == Delivered + Abandoned + LostDetected·(retry disabled).
	Offered   int64
	Delivered int64
	Abandoned int64
	// LostDetected counts loss events at destinations — per packet without
	// retry, per lost transmission attempt with it.
	LostDetected int64
	// Unreachable counts packets failed fast because a hard fault left no
	// surviving route between their endpoints; with outages in the scenario,
	// Offered == Delivered + Abandoned + Unreachable once the network drains.
	Unreachable int64
	// Retried counts re-injections; DeliveredAfterRetry counts packets
	// whose delivering attempt was a retry.
	Retried             int64
	DeliveredAfterRetry int64
	// DroppedFlits is data flits destroyed by link faults; CtrlCorrupted is
	// control flits corrupted (each recovered by link-level
	// retransmission).
	DroppedFlits  int64
	CtrlCorrupted int64
	// CorruptedFlits counts flits (data and control) delivered with bit
	// errors by the BER model; CrcDetected counts those caught by the
	// hop-level CRC; CorruptEscapes counts corrupted payload that reached
	// its destination past every hop CRC (and, when the end-to-end check is
	// off, was delivered as-is).
	CorruptedFlits int64
	CrcDetected    int64
	CorruptEscapes int64
	// PhantomReservations counts reservations installed by escaped-corrupt
	// control flits that failed to match their real data flit;
	// ReclaimedSlots counts orphaned parked flits the reclamation timeout
	// freed back into the loss path.
	PhantomReservations int64
	ReclaimedSlots      int64
	// EagerTransfers and EagerResidencies are the Figure 10 shadow ledger:
	// how many buffer-to-buffer transfers the allocate-at-reservation-time
	// policy would have required, over how many buffer residencies were
	// replayed. Zero unless a flit-reservation configuration tracks them.
	EagerTransfers, EagerResidencies int64
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
	// PoolUsage reports the occupancy and capacity of one input port's
	// buffer pool on the given router — the granularity at which
	// Section 4.2 of the paper tracks occupancy ("a specific buffer
	// pool of a router in the middle of the mesh").
	PoolUsage(id topology.NodeID, port topology.Port) (used, capacity int)
	// Counts reports the network's accounting of the run since Reset.
	Counts() Counts
}
