package packetswitch

import (
	"frfc/internal/metrics"
	"frfc/internal/noc"
	"frfc/internal/sim"
	"frfc/internal/topology"
	"frfc/internal/waterfall"
)

// ni injects packets over the local link, one packet at a time (the FIFO
// source used throughout this repository), debiting a packet-sized credit at
// the router's injection input per packet.
type ni struct {
	cfg Config
	wf  *waterfall.Ledger

	queue noc.SourceQueue
	// current is the interface's own scratch, cut afresh for each packet:
	// flits go on the wire by value. current[next:] are the flits of the
	// packet under injection still to send; none, and the interface is free.
	current []noc.DataFlit
	next    int
	credits int

	data     *sim.Pipe[noc.DataFlit]
	creditIn *sim.Pipe[noc.VCCredit]
	// cal is the node's due calendar, shared with its router: the interface
	// reads creditIn on the cycles niBit is set.
	cal sim.Calendar
}

func newNI(cfg Config) *ni {
	n := &ni{cfg: cfg}
	n.reset()
	return n
}

// reset returns the interface to its just-built state: nothing under
// injection, every packet buffer of the router's Local input credited. The
// source queue is the network's.
func (n *ni) reset() {
	clear(n.current[:cap(n.current)])
	n.current, n.next = n.current[:0], 0
	n.credits = n.cfg.PacketBuffers
}

func (n *ni) Tick(now sim.Cycle) {
	if cell := n.cal.Cell(now); *cell&niBit != 0 {
		*cell &^= niBit
		if n.credits += len(n.creditIn.Take(now)); n.credits > n.cfg.PacketBuffers {
			panic("packetswitch: NI credit overflow")
		}
	}
	if n.next == len(n.current) && n.queue.Len() > 0 && n.credits > 0 {
		p := n.queue.Pop()
		n.credits--
		p.InjectedAt = now
		if n.wf != nil && p.Sampled {
			n.wf.InjectStart(uint64(p.ID), 0, p.CreatedAt, now)
		}
		n.current, n.next = noc.AppendDataFlits(n.current[:0], p), 0
	}
	if n.next < len(n.current) {
		if f := n.current[n.next]; n.wf != nil && n.next == 0 && f.Packet.Sampled {
			n.wf.HeadWire(uint64(f.Packet.ID), 0, now)
		}
		n.data.Send(now, n.current[n.next])
		n.next++
	}
}

// Network is a mesh of store-and-forward or cut-through routers.
type Network struct {
	noc.Terminals
	mesh topology.Mesh
	cfg  Config

	routers []*Router
	nis     []*ni
}

var _ noc.Network = (*Network)(nil)
var _ metrics.Attachable = (*Network)(nil)

// AttachProbe hands the observability probe to every component. The packet-
// switched baselines only consume the latency-stage ledger; the flit-level
// channel/buffer counters stay with the flit-granularity fabrics.
func (n *Network) AttachProbe(p *metrics.Probe) {
	p.Init(n.mesh.Radix())
	wf := p.Waterfall()
	for _, r := range n.routers {
		r.wf = wf
	}
	for _, x := range n.nis {
		x.wf = wf
	}
	for _, s := range n.Sinks {
		s.Ledger = wf
	}
}

// New assembles a packet-switched network over the given mesh. It allocates
// and wires the components and leaves every initial value to Reset.
func New(mesh topology.Mesh, cfg Config, seed uint64, hooks *noc.Hooks) *Network {
	cfg = cfg.withDefaults()
	cfg.validate()
	n := &Network{Terminals: noc.NewTerminals(mesh.N(), max(cfg.LinkLatency, cfg.CreditLatency), cfg.LocalLatency), mesh: mesh, cfg: cfg}
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
			data := noc.NewWire[noc.DataFlit](t, cfg.LinkLatency, 1, &far.cal, dataBit(op))
			// Several packet buffers of one input can release in the
			// same cycle (toward different outputs), so the credit
			// wire carries up to PacketBuffers credits per cycle.
			credit := noc.NewWire[noc.VCCredit](t, cfg.CreditLatency, cfg.PacketBuffers, &r.cal, creditBit(p))
			r.out[p].data, r.out[p].creditIn = data, credit
			far.in[op].data, far.in[op].creditOut = data, credit
		}
		x, local := n.nis[id], &r.in[topology.Local]
		x.data = noc.NewWire[noc.DataFlit](t, cfg.LocalLatency, 1, &r.cal, dataBit(topology.Local))
		x.creditIn = noc.NewWire[noc.VCCredit](t, cfg.CreditLatency, cfg.PacketBuffers, &x.cal, niBit)
		local.data, local.creditOut = x.data, x.creditIn
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

// PoolUsage implements noc.Network.
func (n *Network) PoolUsage(id topology.NodeID, port topology.Port) (used, capacity int) {
	return n.routers[id].poolUsage(port)
}
