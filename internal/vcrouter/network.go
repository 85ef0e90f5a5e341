package vcrouter

import (
	"fmt"
	"strings"

	"frfc/internal/metrics"
	"frfc/internal/noc"
	"frfc/internal/sim"
	"frfc/internal/topology"
)

// Network is a complete mesh of virtual-channel routers with per-node
// network interfaces. It implements noc.Network.
type Network struct {
	mesh topology.Mesh
	cfg  Config
	// hooks is what the sinks report through, one value for the network's
	// life that Reset sets to the current run's.
	hooks *noc.Hooks

	routers []*Router
	nis     []*ni
	sinks   []*noc.Sink

	// probe is the attached observability sink; nil when disabled.
	probe *metrics.Probe

	// linkRNG drives the bit-error draws on every inter-router data link;
	// nil unless BER > 0.
	linkRNG *sim.RNG

	offered int64
}

var _ noc.Network = (*Network)(nil)

// New assembles a virtual-channel network over the given mesh. The seed
// drives every random-arbitration and injection decision, making runs
// reproducible. hooks may be nil. It allocates and wires the components and
// leaves every initial value to Reset.
func New(mesh topology.Mesh, cfg Config, seed uint64, hooks *noc.Hooks) *Network {
	cfg = cfg.withDefaults()
	cfg.validate()
	n := &Network{mesh: mesh, cfg: cfg, hooks: new(noc.Hooks)}
	if cfg.BER > 0 {
		n.linkRNG = new(sim.RNG)
	}
	n.routers = make([]*Router, mesh.N())
	n.nis = make([]*ni, mesh.N())
	n.sinks = make([]*noc.Sink, mesh.N())
	cells := sim.CalendarCells(max(cfg.LinkLatency, cfg.CreditLatency, cfg.LocalLatency))
	calendars := make([]uint32, mesh.N()*cells) // a node's for its router, interface and sink
	for id := 0; id < mesh.N(); id++ {
		cal := sim.Calendar(calendars[id*cells : (id+1)*cells : (id+1)*cells])
		n.routers[id] = newRouter(topology.NodeID(id), mesh, &n.cfg, new(sim.RNG))
		n.nis[id] = newNI(topology.NodeID(id), &n.cfg, new(sim.RNG))
		n.sinks[id] = noc.NewSink(topology.NodeID(id), n.hooks)
		n.routers[id].cal, n.nis[id].cal = cal, cal
		n.sinks[id].Cal = cal
	}
	n.wire()
	n.Reset(seed, hooks)
	return n
}

// Reset implements noc.Network. Channel rings, wires and scratch keep the
// size they had grown to; nothing else of an earlier run survives.
func (n *Network) Reset(seed uint64, hooks *noc.Hooks) {
	*n.hooks = noc.Hooks{}
	if hooks != nil {
		*n.hooks = *hooks
	}
	n.AttachProbe(nil)
	n.offered = 0

	// The link stream is split off the root seed only when BER > 0, so a
	// zero-BER configuration keeps the split order — and the bit-identical
	// behavior — of builds that predate the error model.
	var root sim.RNG
	root.Seed(seed)
	if n.linkRNG != nil {
		root.SplitInto(n.linkRNG)
	}
	for _, r := range n.routers {
		root.SplitInto(r.rng)
		r.reset()
		for p := range r.out {
			if o := &r.out[p]; o.exists {
				o.data.Reset()
				if o.creditIn != nil {
					o.creditIn.Reset()
				}
			}
		}
	}
	for id, x := range n.nis {
		root.SplitInto(x.rng)
		x.reset()
		x.data.Reset()
		x.creditIn.Reset()
		n.sinks[id].Reset()
	}
}

// AttachProbe points the whole network — routers, interfaces, sinks — at an
// observability probe; nil detaches. Implements metrics.Attachable.
func (n *Network) AttachProbe(p *metrics.Probe) {
	n.probe = p
	p.Init(n.mesh.Radix())
	for _, r := range n.routers {
		r.probe = p
		r.prof = p.Profile()
		r.wf = p.Waterfall()
	}
	for _, x := range n.nis {
		x.probe = p
		x.prof = p.Profile()
		x.wf = p.Waterfall()
	}
	for _, s := range n.sinks {
		s.Probe = p
		s.Prof = p.Profile()
		s.Ledger = p.Waterfall()
	}
}

// wire connects routers, NIs and sinks with delay-line pipes: data links of
// LinkLatency, credit wires of CreditLatency, and injection/ejection links of
// LocalLatency. Each sender is pointed at the calendar of the node its wire
// reaches and the wire's bit in it.
func (n *Network) wire() {
	cfg := n.cfg
	for id := 0; id < n.mesh.N(); id++ {
		r := n.routers[id]
		// Inter-router links: create the pipe on the output side and
		// hand the receiving end to the neighbor's input.
		for p := topology.Port(0); p < topology.Local; p++ {
			nb, ok := n.mesh.Neighbor(topology.NodeID(id), p)
			if !ok {
				continue
			}
			data := sim.NewPipe[noc.DataFlit](cfg.LinkLatency, 1)
			if cfg.BER > 0 {
				data.WithBitErrors(cfg.BER, n.linkRNG, corruptFlit)
			}
			credit := sim.NewPipe[noc.VCCredit](cfg.CreditLatency, 1)
			far, op := n.routers[nb], p.Opposite()
			o, farIn := &r.out[p], &far.in[op]
			o.data, o.dataCal, o.dataBit, o.latency = data, far.cal, dataBit(op), cfg.LinkLatency
			o.creditIn = credit
			farIn.data = data
			farIn.creditOut, farIn.creditCal, farIn.creditBit = credit, r.cal, creditBit(p)
		}
		// Injection: NI -> router Local input.
		inj := sim.NewPipe[noc.DataFlit](cfg.LocalLatency, 1)
		injCredit := sim.NewPipe[noc.VCCredit](cfg.CreditLatency, 1)
		ni, local := n.nis[id], &r.in[topology.Local]
		ni.data, ni.creditIn = inj, injCredit
		local.data = inj
		local.creditOut, local.creditCal, local.creditBit = injCredit, r.cal, niBit
		// Ejection: router Local output -> sink.
		ej := sim.NewPipe[noc.DataFlit](cfg.LocalLatency, 1)
		o := &r.out[topology.Local]
		o.data, o.dataCal, o.dataBit, o.latency = ej, r.cal, noc.SinkBit, cfg.LocalLatency
		n.sinks[id].Data = ej
	}
}

// corruptFlit is the data links' bit-error transform: the flit is delivered
// on schedule with its Corrupted flag set; only a CRC check downstream can
// tell the payload is wrong. The link's pipe counts it.
func corruptFlit(f noc.DataFlit) noc.DataFlit {
	f.Corrupted = true
	return f
}

// Counts implements noc.Network: the packets offered, and what the sinks, the
// routers' hop CRCs and the links' bit-error model tallied.
func (n *Network) Counts() noc.Counts {
	c := noc.Counts{Offered: n.offered}
	for id, r := range n.routers {
		n.sinks[id].AddCounts(&c)
		c.CrcDetected += r.crcRepaired
		for p := range r.out {
			if o := &r.out[p]; o.exists {
				c.CorruptedFlits += o.data.Corrupted()
			}
		}
	}
	return c
}

// Offer implements noc.Network.
func (n *Network) Offer(p *noc.Packet) {
	n.offered++
	n.nis[p.Src].queue.Push(p)
}

// Tick implements noc.Network: one cycle for every NI, router, and sink.
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
	if n.probe.SampleDue(now) {
		for id, r := range n.routers {
			for p := range r.in {
				if r.in[p].exists {
					n.probe.Occupancy(id, p, r.in[p].poolUsed, n.cfg.BuffersPerInput())
				}
			}
		}
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
	return int(n.offered - n.Counts().Delivered)
}

// PoolUsage implements noc.Network.
func (n *Network) PoolUsage(id topology.NodeID, port topology.Port) (used, capacity int) {
	in := &n.routers[id].in[port]
	if !in.exists {
		return 0, 0
	}
	return in.poolUsed, n.cfg.BuffersPerInput()
}

// DumpState renders the routers' internal state for deadlock diagnosis: per
// input VC, the queue depth and head flit; per output, credit counts and VC
// ownership.
func (n *Network) DumpState() string {
	var b strings.Builder
	for id, r := range n.routers {
		busy := false
		for p := range r.in {
			if r.in[p].exists && r.in[p].poolUsed > 0 {
				busy = true
			}
		}
		if !busy {
			continue
		}
		fmt.Fprintf(&b, "router %d\n", id)
		for p := range r.in {
			in := &r.in[p]
			if !in.exists {
				continue
			}
			for v := range in.vcs {
				vc := &in.vcs[v]
				if vc.n == 0 {
					continue
				}
				fmt.Fprintf(&b, "  in %s vc %d: qlen=%d head=%v routed=%v route=%v alloc=%v outVC=%d\n",
					topology.Port(p), v, vc.n, vc.q[vc.head].flit, vc.routed, vc.route, vc.allocated, vc.outVC)
			}
		}
		for p := range r.out {
			o := &r.out[p]
			if !o.exists {
				continue
			}
			fmt.Fprintf(&b, "  out %s credits=%v owned=%v\n", topology.Port(p), o.credits, o.owned)
		}
	}
	for id, ni := range n.nis {
		if ni.queue.Len() > 0 || ni.active > 0 {
			fmt.Fprintf(&b, "NI %d queue=%d active=%d credits=%v\n", id, ni.queue.Len(), ni.active, ni.credits)
		}
	}
	return b.String()
}
