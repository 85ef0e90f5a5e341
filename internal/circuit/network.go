package circuit

import (
	"frfc/internal/metrics"
	"frfc/internal/noc"
	"frfc/internal/sim"
	"frfc/internal/topology"
	"frfc/internal/waterfall"
)

// ni is the circuit-switched network interface: one packet at a time, it
// launches a probe, waits for the ack announcing the circuit is complete,
// streams the data flits, and moves on (the tail tears the circuit down as
// it travels).
type ni struct {
	cfg Config
	// wf is the latency-stage ledger; for circuit switching the whole
	// probe/ack round trip (circuit setup) lands in the Reserve stage,
	// between InjectStart at probe launch and HeadWire at the first data
	// flit. The routers are combinational for data, so headWire→eject
	// telescopes into Link with no router sites at all.
	wf *waterfall.Ledger

	queue   noc.SourceQueue
	current *noc.Packet
	// flits is the interface's own scratch, cut afresh for each packet: flits
	// go on the wire by value.
	flits []noc.DataFlit
	next  int
	acked bool

	probeCredits int

	probeOut      *sim.Pipe[probe]
	probeCreditIn *sim.Pipe[noc.VCCredit]
	ackIn         *sim.Pipe[ack]
	dataOut       *sim.Pipe[noc.DataFlit]
	// cal is the node's due calendar, shared with its router: the interface
	// reads its own two wires on the cycles their bits (niBits) are set.
	cal sim.Calendar
}

func newNI(cfg Config) *ni {
	n := &ni{cfg: cfg}
	n.reset()
	return n
}

// reset returns the interface to its just-built state: no circuit requested
// or open, every probe buffer of the router credited. The source queue is the
// network's.
func (n *ni) reset() {
	clear(n.flits[:cap(n.flits)])
	n.current, n.flits, n.next, n.acked = nil, n.flits[:0], 0, false
	n.probeCredits = n.cfg.ProbeBuffers
}

func (n *ni) Tick(now sim.Cycle) {
	cell := n.cal.Cell(now)
	due := *cell & niBits
	*cell &^= due
	if due&niCredit != 0 {
		if n.probeCredits += len(n.probeCreditIn.Take(now)); n.probeCredits > n.cfg.ProbeBuffers {
			panic("circuit: NI probe credit overflow")
		}
	}
	if due&niAck != 0 {
		acks := n.ackIn.Take(now)
		for i := range acks {
			if n.current == nil || acks[i].Item.id != n.current.ID {
				panic("circuit: ack for a packet the NI is not waiting on")
			}
			n.acked = true
		}
	}
	if n.current == nil && n.queue.Len() > 0 && n.probeCredits > 0 {
		p := n.queue.Pop()
		n.current = p
		p.InjectedAt = now
		if n.wf != nil && p.Sampled {
			n.wf.InjectStart(uint64(p.ID), 0, p.CreatedAt, now)
		}
		n.flits = noc.AppendDataFlits(n.flits[:0], p)
		n.next = 0
		n.acked = false
		n.probeCredits--
		n.probeOut.Send(now, probe{p: p})
	}
	if n.current != nil && n.acked && n.next < len(n.flits) {
		if n.wf != nil && n.next == 0 && n.current.Sampled {
			n.wf.HeadWire(uint64(n.current.ID), 0, now)
		}
		n.dataOut.Send(now, n.flits[n.next])
		n.next++
		if n.next == len(n.flits) {
			n.current = nil
		}
	}
}

func (n *ni) pendingWork() int {
	w := n.queue.Len()
	if n.current != nil {
		w++
	}
	return w
}

// Network is a mesh of circuit-switched routers.
type Network struct {
	noc.Terminals
	mesh topology.Mesh
	cfg  Config

	routers []*Router
	nis     []*ni
}

var _ noc.Network = (*Network)(nil)
var _ metrics.Attachable = (*Network)(nil)

// AttachProbe hands the observability probe to the NIs and sinks. Circuit
// routers hold no per-flit state worth probing — the latency ledger is the
// only consumer here.
func (n *Network) AttachProbe(p *metrics.Probe) {
	p.Init(n.mesh.Radix())
	wf := p.Waterfall()
	for _, x := range n.nis {
		x.wf = wf
	}
	for _, s := range n.Sinks {
		s.Ledger = wf
	}
}

// New assembles a circuit-switched network over the given mesh. It allocates
// and wires the components and leaves every initial value to Reset.
func New(mesh topology.Mesh, cfg Config, seed uint64, hooks *noc.Hooks) *Network {
	cfg = cfg.withDefaults()
	cfg.validate()
	n := &Network{Terminals: noc.NewTerminals(mesh.N(), max(cfg.LinkLatency, cfg.CtrlLinkLatency), cfg.LocalLatency), mesh: mesh, cfg: cfg}
	n.routers = make([]*Router, mesh.N())
	n.nis = make([]*ni, mesh.N())
	for id := 0; id < mesh.N(); id++ {
		n.routers[id] = newRouter(topology.NodeID(id), mesh, cfg, new(sim.RNG))
		n.nis[id] = newNI(cfg)
		n.routers[id].cal, n.nis[id].cal = n.Cal(id), n.Cal(id)
		n.Queues[id] = &n.nis[id].queue
	}
	n.wire()
	n.Reset(seed, hooks)
	return n
}

// Reset implements noc.Network.
func (n *Network) Reset(seed uint64, hooks *noc.Hooks) {
	n.Terminals.Reset(hooks)
	n.AttachProbe(nil)

	var root sim.RNG
	root.Seed(seed)
	for id, r := range n.routers {
		root.SplitInto(r.rng)
		r.reset()
		n.nis[id].reset()
	}
}

// wire connects routers, interfaces and sinks with pipes, each waking its
// receiver: the bit it names on the receiving node's calendar.
func (n *Network) wire() {
	cfg, t := n.cfg, &n.Terminals
	for id := 0; id < n.mesh.N(); id++ {
		r := n.routers[id]
		for p := topology.Port(0); p < topology.Local; p++ {
			nb, ok := n.mesh.Neighbor(topology.NodeID(id), p)
			if !ok {
				continue
			}
			far := n.routers[nb]
			op := p.Opposite()
			o, farIn := &r.out[p], &far.in[op]
			o.probeOut = noc.NewWire[probe](t, cfg.CtrlLinkLatency, 1, &far.cal, wireBit(probeWire, op))
			o.probeCreditIn = noc.NewWire[noc.VCCredit](t, cfg.CtrlLinkLatency, 1, &r.cal, wireBit(probeCreditWire, p))
			o.ackIn = noc.NewWire[ack](t, cfg.CtrlLinkLatency, cfg.ProbeBuffers, &r.cal, wireBit(ackWire, p))
			o.data = noc.NewWire[noc.DataFlit](t, cfg.LinkLatency, 1, &far.cal, wireBit(dataWire, op))
			farIn.in, farIn.creditOut, farIn.ackOut, far.dataIn[op] = o.probeOut, o.probeCreditIn, o.ackIn, o.data
		}

		ni, local := n.nis[id], &r.in[topology.Local]
		ni.probeOut = noc.NewWire[probe](t, cfg.CtrlLinkLatency, 1, &r.cal, wireBit(probeWire, topology.Local))
		ni.probeCreditIn = noc.NewWire[noc.VCCredit](t, cfg.CtrlLinkLatency, 1, &ni.cal, niCredit)
		ni.ackIn = noc.NewWire[ack](t, cfg.CtrlLinkLatency, cfg.ProbeBuffers, &ni.cal, niAck)
		ni.dataOut = noc.NewWire[noc.DataFlit](t, cfg.LocalLatency, 1, &r.cal, wireBit(dataWire, topology.Local))
		local.in, local.creditOut, local.ackOut, r.dataIn[topology.Local] = ni.probeOut, ni.probeCreditIn, ni.ackIn, ni.dataOut

		r.out[topology.Local].data = n.Sinks[id].Data
	}
}

// Tick implements noc.Network.
func (n *Network) Tick(now sim.Cycle) {
	for _, x := range n.nis {
		x.Tick(now)
	}
	for _, r := range n.routers {
		r.Tick(now)
	}
	for _, s := range n.Sinks {
		s.Tick(now)
	}
}

// PoolUsage implements noc.Network. Circuit switching buffers no data flits
// at routers; the only storage is the probe queues, which hold no payload,
// so usage is always zero.
func (n *Network) PoolUsage(id topology.NodeID, port topology.Port) (used, capacity int) {
	return 0, 0
}
