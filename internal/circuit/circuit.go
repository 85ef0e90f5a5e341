// Package circuit implements circuit switching, the substrate of the wave
// switching hybrid the paper reviews in Section 2 [DLSY96]: a probe
// traverses a separate control network reserving an exclusive path of data
// channels; an acknowledgment returns to the source; the message then
// streams over the circuit with no per-hop buffering, arbitration, or flow
// control at all; and the tail flit tears the circuit down behind itself.
//
// Circuit switching shares flit reservation's insight — move the control
// decisions off the data path — but allocates channels for a whole message
// rather than cycle by cycle. As the paper observes, its gains are "only
// realizable if the circuit setup time can be amortized over many message
// deliveries": the benchmarks show it beating buffered flow control on very
// long messages and losing badly on short ones.
package circuit

import (
	"fmt"
	"math/bits"

	"frfc/internal/noc"
	"frfc/internal/routing"
	"frfc/internal/sim"
	"frfc/internal/topology"
)

// Config selects a circuit-switched network configuration.
type Config struct {
	// ProbeBuffers is the probe queue depth per control input.
	ProbeBuffers int
	// LinkLatency is the data-wire delay between adjacent routers.
	LinkLatency sim.Cycle
	// CtrlLinkLatency is the probe/ack wire delay (fast control wires,
	// as in wave switching).
	CtrlLinkLatency sim.Cycle
	// LocalLatency is the injection/ejection link delay.
	LocalLatency sim.Cycle

	Routing routing.Algorithm
}

func (c Config) withDefaults() Config {
	if c.ProbeBuffers == 0 {
		c.ProbeBuffers = 4
	}
	if c.LinkLatency == 0 {
		c.LinkLatency = 4
	}
	if c.CtrlLinkLatency == 0 {
		c.CtrlLinkLatency = 1
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
	if c.ProbeBuffers < 1 {
		panic("circuit: ProbeBuffers must be >= 1")
	}
	if c.LinkLatency < 1 || c.CtrlLinkLatency < 1 || c.LocalLatency < 1 {
		panic("circuit: link latencies must be >= 1 cycle")
	}
}

// circuitID identifies one circuit; IDs are the packet IDs.
type circuitID = noc.PacketID

// probe asks for a path to Dst on behalf of packet P.
type probe struct {
	p *noc.Packet
}

// ack travels the reserved path backwards to release the source.
type ack struct {
	id circuitID
}

// probeQueue is the control input of one router port.
type probeQueue struct {
	exists    bool
	q         []probe
	arrivedAt []sim.Cycle
	in        *sim.Pipe[probe]
	creditOut *sim.Pipe[noc.VCCredit]
	// ackOut sends acks back toward the probe's origin.
	ackOut *sim.Pipe[ack]
}

// outputPort is the data-network side of one router output.
type outputPort struct {
	exists bool
	owner  circuitID
	owned  bool
	// inPort remembers which input feeds the owner circuit, for data
	// forwarding and teardown.
	inPort topology.Port

	probeOut      *sim.Pipe[probe]
	probeCreditIn *sim.Pipe[noc.VCCredit]
	ackIn         *sim.Pipe[ack]
	data          *sim.Pipe[noc.DataFlit]
	// probeCredits gates probe forwarding into the downstream queue.
	probeCredits int
}

// A node's router, interface and sink share one due calendar (sim.Calendar):
// wireBit(k, p) is the wire of kind k into port p. The Local output ejects data
// only, so its ack and probe-credit slots name the interface's two wires
// (niBits); noc.SinkBit is the ejection wire.
type wireKind uint

const (
	dataWire        wireKind = iota // circuit data into the input
	probeWire                       // probes into the input
	ackWire                         // acks into the output
	probeCreditWire                 // probe credits into the output
	numWireKinds
)

const (
	numPorts   = uint(topology.NumPorts)
	portMask   = 1<<numPorts - 1
	niAck      = 1 << (uint(ackWire)*numPorts + uint(topology.Local))
	niCredit   = 1 << (uint(probeCreditWire)*numPorts + uint(topology.Local))
	niBits     = niAck | niCredit
	routerBits = (1<<(uint(numWireKinds)*numPorts) - 1) &^ niBits
)

// wireBit is the bit of the wire of kind k into port p.
func wireBit(k wireKind, p topology.Port) uint32 { return 1 << (uint(k)*numPorts + uint(p)) }

// Router is one circuit-switched router: probes arbitrate for exclusive
// ownership of output channels; data flits pass through combinationally
// along established circuits.
type Router struct {
	id   topology.NodeID
	mesh topology.Mesh
	cfg  Config
	rng  *sim.RNG

	in  [topology.NumPorts]probeQueue
	out [topology.NumPorts]outputPort

	// route maps an owned input port's circuit onto its output port, for
	// data forwarding and ack backtracking.
	fwd map[circuitID]fwdEntry

	dataIn [topology.NumPorts]*sim.Pipe[noc.DataFlit]
	// cal is the node's due calendar: Tick reads only the wires whose bits
	// (routerBits) its cycle's word has.
	cal sim.Calendar

	cands []int
}

type fwdEntry struct {
	in, out topology.Port
}

func newRouter(id topology.NodeID, mesh topology.Mesh, cfg Config, rng *sim.RNG) *Router {
	r := &Router{id: id, mesh: mesh, cfg: cfg, rng: rng, fwd: make(map[circuitID]fwdEntry)}
	for p := topology.Port(0); p < topology.NumPorts; p++ {
		if p != topology.Local && !mesh.HasLink(id, p) {
			continue
		}
		r.in[p] = probeQueue{exists: true}
		r.out[p] = outputPort{exists: true}
	}
	r.reset()
	return r
}

// reset returns the router to its just-built state: no probe queued, no
// circuit through it, every downstream probe buffer credited. The random
// stream, the wires and the calendar are the network's to restart, reset and
// clear.
func (r *Router) reset() {
	clear(r.fwd)
	for p := range r.in {
		in := &r.in[p]
		if !in.exists {
			continue
		}
		clear(in.q)
		in.q, in.arrivedAt = in.q[:0], in.arrivedAt[:0]
		o := &r.out[p]
		o.owner, o.owned, o.inPort = 0, false, 0
		o.probeCredits = r.cfg.ProbeBuffers
	}
}

// Tick advances the router one cycle: absorb acks and probe credits, route
// and grant probes, then forward circuit data, reading only the wires its
// calendar says deliver.
func (r *Router) Tick(now sim.Cycle) {
	cell := r.cal.Cell(now)
	due := *cell & routerBits
	*cell &^= due
	// Acks travel backwards: an ack arriving on an output port's ack wire
	// belongs to the circuit using that output; relay it toward the
	// circuit's input.
	for ports := due >> (uint(ackWire) * numPorts) & portMask; ports != 0; ports &= ports - 1 {
		p := topology.Port(bits.TrailingZeros32(ports))
		o := &r.out[p]
		acks := o.ackIn.Take(now)
		for i := range acks {
			a := acks[i].Item
			e, known := r.fwd[a.id]
			if !known {
				panic(fmt.Sprintf("circuit: node %d relaying ack for unknown circuit %d", r.id, a.id))
			}
			in := &r.in[e.in]
			in.ackOut.Send(now, a)
		}
	}
	// Probe credits.
	for ports := due >> (uint(probeCreditWire) * numPorts) & portMask; ports != 0; ports &= ports - 1 {
		p := topology.Port(bits.TrailingZeros32(ports))
		o := &r.out[p]
		if o.probeCredits += len(o.probeCreditIn.Take(now)); o.probeCredits > r.cfg.ProbeBuffers {
			panic("circuit: probe credit overflow")
		}
	}
	// Receive probes.
	for ports := due >> (uint(probeWire) * numPorts) & portMask; ports != 0; ports &= ports - 1 {
		p := topology.Port(bits.TrailingZeros32(ports))
		in := &r.in[p]
		probes := in.in.Take(now)
		for i := range probes {
			in.q = append(in.q, probes[i].Item)
			in.arrivedAt = append(in.arrivedAt, now)
			if len(in.q) > r.cfg.ProbeBuffers {
				panic(fmt.Sprintf("circuit: node %d probe buffer overflow on %s", r.id, p))
			}
		}
	}
	r.grantProbes(now)
	r.forwardData(now, due&portMask)
}

// grantProbes routes the probe at the head of each input queue and, when its
// output channel is free (and the downstream probe queue has room), extends
// the circuit and forwards the probe. At the destination the circuit is
// complete: the ack starts its journey back.
func (r *Router) grantProbes(now sim.Cycle) {
	r.cands = r.cands[:0]
	for p := range r.in {
		in := &r.in[p]
		if !in.exists || len(in.q) == 0 || in.arrivedAt[0] >= now {
			continue
		}
		r.cands = append(r.cands, p)
	}
	sim.Shuffle(r.rng, r.cands)
	for _, p := range r.cands {
		in := &r.in[p]
		pr := in.q[0]
		out, reachable := r.cfg.Routing.NextPort(r.mesh, r.id, topology.NodeID(pr.p.Dst))
		if !reachable {
			panic(fmt.Sprintf("circuit: node %d: destination %d unreachable", r.id, pr.p.Dst))
		}
		o := &r.out[out]
		if o.owned {
			continue // channel held by another circuit: wait
		}
		if out != topology.Local && o.probeCredits == 0 {
			continue // downstream probe queue full
		}
		// Extend the circuit.
		o.owned = true
		o.owner = pr.p.ID
		o.inPort = topology.Port(p)
		r.fwd[pr.p.ID] = fwdEntry{in: topology.Port(p), out: out}
		// Consume the probe.
		copy(in.q, in.q[1:])
		in.q = in.q[:len(in.q)-1]
		copy(in.arrivedAt, in.arrivedAt[1:])
		in.arrivedAt = in.arrivedAt[:len(in.arrivedAt)-1]
		if in.creditOut != nil {
			in.creditOut.Send(now, noc.VCCredit{})
		}
		if out == topology.Local {
			// Destination: the circuit is complete; launch the ack
			// back toward the source.
			in.ackOut.Send(now, ack{id: pr.p.ID})
			continue
		}
		o.probeCredits--
		o.probeOut.Send(now, pr)
	}
}

// forwardData relays circuit data combinationally: a flit arriving on an
// input whose bit is set in ports follows its circuit's output the same cycle
// (the wires are switched through; there is no buffering). Tails tear the
// circuit down.
func (r *Router) forwardData(now sim.Cycle, ports uint32) {
	for ; ports != 0; ports &= ports - 1 {
		p := topology.Port(bits.TrailingZeros32(ports))
		flits := r.dataIn[p].Take(now)
		for i := range flits {
			f := flits[i].Item
			e, known := r.fwd[f.Packet.ID]
			if !known || e.in != p {
				panic(fmt.Sprintf("circuit: node %d: data flit %s with no circuit", r.id, f))
			}
			o := &r.out[e.out]
			if !o.owned || o.owner != f.Packet.ID {
				panic(fmt.Sprintf("circuit: node %d: flit %s on a channel owned by circuit %d", r.id, f, o.owner))
			}
			o.data.Send(now, f)
			if f.Type.IsTail() {
				o.owned = false
				delete(r.fwd, f.Packet.ID)
			}
		}
	}
}

func (r *Router) pendingWork() int {
	n := len(r.fwd)
	for p := range r.in {
		if r.in[p].exists {
			n += len(r.in[p].q)
		}
	}
	return n
}
