// Package packetswitch implements the packet-granularity flow-control
// methods reviewed in Section 2 of the paper: store-and-forward flow control
// (each node receives an entire packet before forwarding any of it — the
// method of early computer networks and the Cosmic Cube) and virtual
// cut-through [KerKle79] (transmission may begin as soon as the header
// arrives, but buffers and channels are still allocated in packet-sized
// units). Together with internal/wormhole and internal/vcrouter they complete
// the lineage the paper positions flit-reservation flow control against.
//
// Both methods share one router structure: per-input packet-sized buffers,
// packet-granularity credits, and a channel held head-to-tail; they differ
// only in when a buffered packet becomes eligible to forward.
package packetswitch

import (
	"fmt"
	"math/bits"

	"frfc/internal/noc"
	"frfc/internal/routing"
	"frfc/internal/sim"
	"frfc/internal/topology"
	"frfc/internal/waterfall"
)

// Mode selects the forwarding rule.
type Mode int

// Modes.
const (
	// StoreAndForward forwards a packet only after every flit arrived.
	StoreAndForward Mode = iota
	// CutThrough forwards as soon as the header has been routed,
	// streaming the remaining flits as they arrive.
	CutThrough
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case StoreAndForward:
		return "store-and-forward"
	case CutThrough:
		return "cut-through"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Config selects a packet-switched network configuration.
type Config struct {
	Mode Mode
	// PacketBuffers is the number of packet-sized buffers per input.
	PacketBuffers int
	// MaxPacketLen is the capacity of each packet buffer in flits;
	// offering a longer packet panics.
	MaxPacketLen int

	LinkLatency   sim.Cycle
	CreditLatency sim.Cycle
	LocalLatency  sim.Cycle

	Routing routing.Algorithm
}

func (c Config) withDefaults() Config {
	if c.PacketBuffers == 0 {
		c.PacketBuffers = 2
	}
	if c.MaxPacketLen == 0 {
		c.MaxPacketLen = 32
	}
	if c.LinkLatency == 0 {
		c.LinkLatency = 4
	}
	if c.CreditLatency == 0 {
		c.CreditLatency = 1
	}
	if c.LocalLatency == 0 {
		c.LocalLatency = 1
	}
	if c.Routing == nil {
		c.Routing = routing.XY
	}
	return c
}

func (c Config) validate() {
	if c.PacketBuffers < 1 {
		panic("packetswitch: PacketBuffers must be >= 1")
	}
	if c.MaxPacketLen < 1 {
		panic("packetswitch: MaxPacketLen must be >= 1")
	}
	if c.LinkLatency < 1 || c.CreditLatency < 1 || c.LocalLatency < 1 {
		panic("packetswitch: link latencies must be >= 1 cycle")
	}
	if c.Mode != StoreAndForward && c.Mode != CutThrough {
		panic("packetswitch: unknown mode")
	}
}

// packetSlot is one packet-sized buffer of an input port.
type packetSlot struct {
	occupied bool
	flits    []noc.DataFlit
	received int
	total    int
	routed   bool
	route    topology.Port
	headAt   sim.Cycle // when the head flit arrived
	lastAt   sim.Cycle // when the most recent flit arrived
	sent     int       // flits already forwarded
	granted  bool      // owns its output channel until the tail is sent
}

// inputState is one input port.
type inputState struct {
	exists    bool
	slots     []packetSlot
	assembly  int // slot currently receiving flits, -1 if none
	data      *sim.Pipe[noc.DataFlit]
	creditOut *sim.Pipe[noc.VCCredit]
}

// outputState is one output port.
type outputState struct {
	exists   bool
	infinite bool
	credits  int // free packet buffers downstream
	busyWith int // index of the (input*slots+slot) currently holding the channel, -1 if free
	data     *sim.Pipe[noc.DataFlit]
	creditIn *sim.Pipe[noc.VCCredit]
}

// A node's router, interface and sink share one due calendar (sim.Calendar):
// bit p is the data wire into input p, bit numPorts+p the credit wire into
// output p — for Local the interface's credit wire (niBit), as the ejection
// output takes no credits — and noc.SinkBit the ejection wire.
const (
	numPorts   = uint(topology.NumPorts)
	portMask   = 1<<numPorts - 1
	niBit      = 1 << (numPorts + uint(topology.Local))
	routerBits = niBit - 1
)

// dataBit is the bit of the data wire into input p, creditBit that of the
// credit wire into output p.
func dataBit(p topology.Port) uint32   { return 1 << uint(p) }
func creditBit(p topology.Port) uint32 { return 1 << (numPorts + uint(p)) }

// Router is one store-and-forward or cut-through router.
type Router struct {
	id   topology.NodeID
	mesh topology.Mesh
	cfg  Config
	rng  *sim.RNG

	in  [topology.NumPorts]inputState
	out [topology.NumPorts]outputState
	// cal is the node's due calendar: Tick reads only the wires whose bits
	// (routerBits) its cycle's word has.
	cal sim.Calendar

	// wf is the latency-stage ledger cached off the probe at attach time;
	// nil when latency provenance is disabled. A buffered sampled head's
	// wait is charged per cycle: store-and-forward assembly and exhausted
	// downstream buffers → Stall, the 1-cycle routing decision and lost (or
	// busy-channel) arbitration → Arb.
	wf *waterfall.Ledger

	cands []int // scratch: encoded (port, slot) switch candidates

	// freeAtStart snapshots, per output, whether the channel was free when
	// this cycle's grant loop began, so a head denied by busyWith can be
	// attributed to a lost arbitration (free at start, claimed by a winner)
	// rather than to waiting behind an earlier packet.
	freeAtStart [topology.NumPorts]bool
}

func newRouter(id topology.NodeID, mesh topology.Mesh, cfg Config, rng *sim.RNG) *Router {
	r := &Router{id: id, mesh: mesh, cfg: cfg, rng: rng}
	for p := topology.Port(0); p < topology.NumPorts; p++ {
		if p != topology.Local && !mesh.HasLink(id, p) {
			continue
		}
		slots := make([]packetSlot, cfg.PacketBuffers)
		for s := range slots {
			slots[s].flits = make([]noc.DataFlit, 0, cfg.MaxPacketLen)
		}
		r.in[p] = inputState{exists: true, slots: slots}
		r.out[p] = outputState{exists: true, infinite: p == topology.Local}
	}
	r.reset()
	return r
}

// reset returns the router to its just-built state: every packet buffer
// empty, nothing under assembly, every output channel free with all of the
// downstream buffers credited. The random stream, the wires, the calendar and
// the ledger are the network's to restart, reset, clear and detach.
func (r *Router) reset() {
	for p := range r.in {
		in := &r.in[p]
		if !in.exists {
			continue
		}
		for s := range in.slots {
			flits := in.slots[s].flits
			clear(flits[:cap(flits)])
			in.slots[s] = packetSlot{flits: flits[:0]}
		}
		in.assembly = -1
		r.out[p].credits = r.cfg.PacketBuffers
		r.out[p].busyWith = -1
	}
}

// Tick advances the router one cycle, reading the wires its calendar says
// deliver.
func (r *Router) Tick(now sim.Cycle) {
	cell := r.cal.Cell(now)
	if due := *cell & routerBits; due != 0 {
		*cell &^= routerBits
		r.recvCredits(now, due>>numPorts)
		r.recvFlits(now, due&portMask)
	}
	r.allocate(now)
	r.stream(now)
}

// recvCredits reads the credit wires into the outputs whose bits are set in
// ports, lowest first.
func (r *Router) recvCredits(now sim.Cycle, ports uint32) {
	for ; ports != 0; ports &= ports - 1 {
		p := topology.Port(bits.TrailingZeros32(ports))
		o := &r.out[p]
		if o.credits += len(o.creditIn.Take(now)); o.credits > r.cfg.PacketBuffers {
			panic("packetswitch: packet credit overflow")
		}
	}
}

// recvFlits reads the data wires into the inputs whose bits are set in ports,
// lowest first.
func (r *Router) recvFlits(now sim.Cycle, ports uint32) {
	for ; ports != 0; ports &= ports - 1 {
		p := topology.Port(bits.TrailingZeros32(ports))
		in := &r.in[p]
		flits := in.data.Take(now)
		for i := range flits {
			f := &flits[i].Item
			if r.wf != nil && f.Type.IsHead() && f.Packet.Sampled {
				r.wf.Arrive(uint64(f.Packet.ID), 0, now)
			}
			if f.Type.IsHead() {
				slot := -1
				for s := range in.slots {
					if !in.slots[s].occupied {
						slot = s
						break
					}
				}
				if slot == -1 {
					panic(fmt.Sprintf("packetswitch: node %d in %s: head with no free packet buffer", r.id, p))
				}
				if int(f.Packet.Len) > r.cfg.MaxPacketLen {
					panic(fmt.Sprintf("packetswitch: packet of %d flits exceeds buffer capacity %d", f.Packet.Len, r.cfg.MaxPacketLen))
				}
				in.assembly = slot
				sl := &in.slots[slot]
				*sl = packetSlot{occupied: true, flits: sl.flits[:0], total: int(f.Packet.Len), headAt: now}
			}
			if in.assembly == -1 {
				panic("packetswitch: body flit with no packet under assembly")
			}
			sl := &in.slots[in.assembly]
			sl.flits = append(sl.flits, *f)
			sl.received++
			sl.lastAt = now
			if f.Type.IsTail() {
				in.assembly = -1
			}
		}
	}
}

// eligible reports whether a slot may begin (or continue requesting) its
// output channel: routed after a 1-cycle decision, and — for store-and-
// forward — completely received.
func (r *Router) eligible(sl *packetSlot, now sim.Cycle) bool {
	if !sl.occupied || sl.received == 0 {
		return false
	}
	switch r.cfg.Mode {
	case StoreAndForward:
		return sl.received == sl.total && sl.lastAt < now
	default: // CutThrough
		return sl.headAt < now
	}
}

// allocate routes eligible packets and grants free output channels, one
// packet per output, with random arbitration. A grant requires a free packet
// buffer downstream, which is debited immediately — packet-sized allocation.
func (r *Router) allocate(now sim.Cycle) {
	r.cands = r.cands[:0]
	for p := range r.in {
		in := &r.in[p]
		if !in.exists {
			continue
		}
		for s := range in.slots {
			sl := &in.slots[s]
			if sl.granted || !r.eligible(sl, now) {
				if r.wf != nil && sl.occupied && !sl.granted {
					// Not yet a switch candidate: store-and-forward
					// assembly is a buffer stall; the 1-cycle decision
					// pipeline counts as arbitration latency.
					if r.cfg.Mode == StoreAndForward && sl.received < sl.total {
						r.markSlot(sl, waterfall.StageStall, now)
					} else {
						r.markSlot(sl, waterfall.StageArb, now)
					}
				}
				continue
			}
			if !sl.routed {
				route, ok := r.cfg.Routing.NextPort(r.mesh, r.id, topology.NodeID(sl.flits[0].Packet.Dst))
				if !ok {
					panic(fmt.Sprintf("packetswitch: node %d: destination %d unreachable", r.id, sl.flits[0].Packet.Dst))
				}
				sl.route = route
				sl.routed = true
			}
			r.cands = append(r.cands, p*len(in.slots)+s)
		}
	}
	sim.Shuffle(r.rng, r.cands)
	for p := range r.out {
		r.freeAtStart[p] = r.out[p].busyWith == -1
	}
	for _, c := range r.cands {
		p := c / r.cfg.PacketBuffers
		s := c % r.cfg.PacketBuffers
		sl := &r.in[p].slots[s]
		o := &r.out[sl.route]
		if o.busyWith != -1 {
			if r.wf != nil {
				if r.freeAtStart[sl.route] {
					// The channel was free this cycle and another packet
					// won it: a lost arbitration.
					r.markSlot(sl, waterfall.StageArb, now)
				} else {
					// Queued behind a packet holding the channel
					// head-to-tail.
					r.markSlot(sl, waterfall.StageStall, now)
				}
			}
			continue
		}
		if !o.infinite && o.credits == 0 {
			if r.wf != nil {
				r.markSlot(sl, waterfall.StageStall, now)
			}
			continue
		}
		o.busyWith = c
		if !o.infinite {
			o.credits--
		}
		sl.granted = true
	}
}

// stream sends one flit per granted packet per cycle, releasing the channel
// and the input buffer when the tail goes out.
func (r *Router) stream(now sim.Cycle) {
	for p := range r.out {
		o := &r.out[p]
		if !o.exists || o.busyWith == -1 {
			continue
		}
		ip := o.busyWith / r.cfg.PacketBuffers
		s := o.busyWith % r.cfg.PacketBuffers
		in := &r.in[ip]
		sl := &in.slots[s]
		if sl.sent >= sl.received {
			continue // cut-through bubble: waiting for the next flit
		}
		f := sl.flits[sl.sent]
		if r.wf != nil && sl.sent == 0 && f.Type.IsHead() && f.Packet.Sampled {
			r.wf.Depart(uint64(f.Packet.ID), 0, now, false)
		}
		o.data.Send(now, f)
		sl.sent++
		if sl.sent == sl.total {
			// Whole packet forwarded: free the buffer and channel,
			// return one packet credit upstream.
			o.busyWith = -1
			if in.creditOut != nil {
				in.creditOut.Send(now, noc.VCCredit{})
			}
			*sl = packetSlot{flits: sl.flits[:0]}
		}
	}
}

// markSlot charges one waiting cycle of the slot's buffered head to stage.
// Callers have already checked r.wf != nil.
func (r *Router) markSlot(sl *packetSlot, stage waterfall.Stage, now sim.Cycle) {
	f := sl.flits[0]
	if f.Type.IsHead() && f.Packet.Sampled {
		r.wf.Blocked(uint64(f.Packet.ID), stage, now)
	}
}

func (r *Router) poolUsage(p topology.Port) (used, capacity int) {
	in := &r.in[p]
	if !in.exists {
		return 0, 0
	}
	for s := range in.slots {
		if in.slots[s].occupied {
			used += in.slots[s].received - in.slots[s].sent
		}
	}
	return used, r.cfg.PacketBuffers * r.cfg.MaxPacketLen
}
