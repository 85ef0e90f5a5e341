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
	cfg   Config
	hooks *noc.Hooks
	wf    *waterfall.Ledger

	queue   noc.SourceQueue
	current []noc.DataFlit
	next    int
	credits int

	data     *sim.Pipe[noc.DataFlit]
	creditIn *sim.Pipe[noc.VCCredit]
}

func newNI(cfg Config, hooks *noc.Hooks) *ni {
	return &ni{cfg: cfg, hooks: hooks, credits: cfg.PacketBuffers}
}

func (n *ni) Tick(now sim.Cycle) {
	n.creditIn.RecvEach(now, func(noc.VCCredit) {
		n.credits++
		if n.credits > n.cfg.PacketBuffers {
			panic("packetswitch: NI credit overflow")
		}
	})
	if n.current == nil && n.queue.Len() > 0 && n.credits > 0 {
		p := n.queue.Pop()
		n.credits--
		p.InjectedAt = now
		if n.wf != nil && p.Sampled {
			n.wf.InjectStart(uint64(p.ID), 0, p.CreatedAt, now)
		}
		n.current = noc.DataFlits(p)
		n.next = 0
	}
	if n.current != nil {
		if f := n.current[n.next]; n.wf != nil && n.next == 0 && f.Packet.Sampled {
			n.wf.HeadWire(uint64(f.Packet.ID), 0, now)
		}
		n.data.Send(now, n.current[n.next])
		n.hooks.Injected(now)
		n.next++
		if n.next == len(n.current) {
			n.current = nil
		}
	}
}

// Network is a mesh of store-and-forward or cut-through routers.
type Network struct {
	mesh  topology.Mesh
	cfg   Config
	hooks *noc.Hooks

	routers []*Router
	nis     []*ni
	sinks   []*noc.Sink

	offered   int64
	delivered int64
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
	for _, s := range n.sinks {
		s.Ledger = wf
	}
}

// New assembles a packet-switched network over the given mesh.
func New(mesh topology.Mesh, cfg Config, seed uint64, hooks *noc.Hooks) *Network {
	cfg = cfg.withDefaults()
	cfg.validate()
	if hooks == nil {
		hooks = &noc.Hooks{}
	}
	n := &Network{mesh: mesh, cfg: cfg}

	inner := *hooks
	wrapped := inner
	wrapped.PacketDelivered = func(p *noc.Packet, now sim.Cycle) {
		n.delivered++
		if inner.PacketDelivered != nil {
			inner.PacketDelivered(p, now)
		}
	}
	n.hooks = &wrapped

	root := sim.NewRNG(seed)
	n.routers = make([]*Router, mesh.N())
	n.nis = make([]*ni, mesh.N())
	n.sinks = make([]*noc.Sink, mesh.N())
	for id := 0; id < mesh.N(); id++ {
		n.routers[id] = newRouter(topology.NodeID(id), mesh, cfg, root.Split())
	}
	for id := 0; id < mesh.N(); id++ {
		n.nis[id] = newNI(cfg, n.hooks)
		n.sinks[id] = noc.NewSink(n.hooks)
	}
	n.wire()
	return n
}

func (n *Network) wire() {
	cfg := n.cfg
	for id := 0; id < n.mesh.N(); id++ {
		r := n.routers[id]
		for p := topology.Port(0); p < topology.Local; p++ {
			nb, ok := n.mesh.Neighbor(topology.NodeID(id), p)
			if !ok {
				continue
			}
			far := n.routers[nb]
			op := p.Opposite()
			data := sim.NewPipe[noc.DataFlit](cfg.LinkLatency, 1)
			// Several packet buffers of one input can release in the
			// same cycle (toward different outputs), so the credit
			// wire carries up to PacketBuffers credits per cycle.
			credit := sim.NewPipe[noc.VCCredit](cfg.CreditLatency, cfg.PacketBuffers)
			r.out[p].data = data
			r.out[p].creditIn = credit
			far.in[op].data = data
			far.in[op].creditOut = credit
		}
		inj := sim.NewPipe[noc.DataFlit](cfg.LocalLatency, 1)
		injCredit := sim.NewPipe[noc.VCCredit](cfg.CreditLatency, cfg.PacketBuffers)
		n.nis[id].data = inj
		n.nis[id].creditIn = injCredit
		r.in[topology.Local].data = inj
		r.in[topology.Local].creditOut = injCredit
		ej := sim.NewPipe[noc.DataFlit](cfg.LocalLatency, 1)
		r.out[topology.Local].data = ej
		n.sinks[id].Data = ej
	}
}

// Offer implements noc.Network.
func (n *Network) Offer(p *noc.Packet) {
	n.offered++
	n.nis[p.Src].queue.Push(p)
}

// Tick implements noc.Network.
func (n *Network) Tick(now sim.Cycle) {
	for _, x := range n.nis {
		x.Tick(now)
	}
	for _, r := range n.routers {
		r.Tick(now)
	}
	for _, s := range n.sinks {
		s.Tick(now)
	}
}

// SourceQueueLen implements noc.Network.
func (n *Network) SourceQueueLen() int {
	total := 0
	for _, x := range n.nis {
		total += x.queue.Len()
	}
	return total
}

// InFlightPackets implements noc.Network.
func (n *Network) InFlightPackets() int {
	return int(n.offered - n.delivered)
}

// BufferUsage implements noc.Network.
func (n *Network) BufferUsage(id topology.NodeID) (used, capacity int) {
	return n.routers[id].bufferUsage()
}

// PoolUsage implements noc.Network.
func (n *Network) PoolUsage(id topology.NodeID, port topology.Port) (used, capacity int) {
	return n.routers[id].poolUsage(port)
}
