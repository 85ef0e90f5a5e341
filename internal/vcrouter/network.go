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
	noc.Terminals
	mesh topology.Mesh
	cfg  Config

	routers []*Router
	nis     []*ni

	// probe is the attached observability sink; nil when disabled.
	probe *metrics.Probe

	// linkRNG drives the bit-error draws on every inter-router data link;
	// nil unless BER > 0.
	linkRNG *sim.RNG
}

var _ noc.Network = (*Network)(nil)

// New assembles a virtual-channel network over the given mesh. The seed
// drives every random-arbitration and injection decision, making runs
// reproducible. hooks may be nil. It allocates and wires the components and
// leaves every initial value to Reset.
func New(mesh topology.Mesh, cfg Config, seed uint64, hooks *noc.Hooks) *Network {
	cfg = cfg.withDefaults()
	cfg.validate()
	n := &Network{Terminals: noc.NewTerminals(mesh.N(), max(cfg.LinkLatency, cfg.CreditLatency), cfg.LocalLatency), mesh: mesh, cfg: cfg}
	if cfg.BER > 0 {
		n.linkRNG = new(sim.RNG)
	}
	n.routers = make([]*Router, mesh.N())
	n.nis = make([]*ni, mesh.N())
	for id := 0; id < mesh.N(); id++ {
		n.routers[id] = newRouter(topology.NodeID(id), mesh, &n.cfg, new(sim.RNG))
		n.nis[id] = newNI(topology.NodeID(id), &n.cfg, new(sim.RNG))
		n.routers[id].cal, n.nis[id].cal = n.Cal(id), n.Cal(id)
		n.Queues[id] = &n.nis[id].queue
	}
	n.wire()
	n.Reset(seed, hooks)
	return n
}

// Reset implements noc.Network. Channel rings, wires and scratch keep the
// size they had grown to; nothing else of an earlier run survives.
func (n *Network) Reset(seed uint64, hooks *noc.Hooks) {
	n.Terminals.Reset(hooks)
	n.AttachProbe(nil)

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
	}
	for _, x := range n.nis {
		root.SplitInto(x.rng)
		x.reset()
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
	for _, s := range n.Sinks {
		s.Probe = p
		s.Prof = p.Profile()
		s.Ledger = p.Waterfall()
	}
}

// wire connects routers, NIs and sinks with delay-line pipes: data links of
// LinkLatency, credit wires of CreditLatency, and injection/ejection links of
// LocalLatency. Each wire wakes its receiver: the bit it names on the
// receiving node's calendar.
func (n *Network) wire() {
	cfg, t := n.cfg, &n.Terminals
	for id := 0; id < n.mesh.N(); id++ {
		r := n.routers[id]
		// Inter-router links: create the pipe on the output side and
		// hand the receiving end to the neighbor's input.
		for p := topology.Port(0); p < topology.Local; p++ {
			nb, ok := n.mesh.Neighbor(topology.NodeID(id), p)
			if !ok {
				continue
			}
			far, op := n.routers[nb], p.Opposite()
			data := noc.NewWire[noc.DataFlit](t, cfg.LinkLatency, 1, &far.cal, dataBit(op))
			if cfg.BER > 0 {
				data.WithBitErrors(cfg.BER, n.linkRNG, corruptFlit)
			}
			credit := noc.NewWire[noc.VCCredit](t, cfg.CreditLatency, 1, &r.cal, creditBit(p))
			r.out[p].data, r.out[p].creditIn = data, credit
			far.in[op].data, far.in[op].creditOut = data, credit
		}
		// Injection: NI -> router Local input.
		ni, local := n.nis[id], &r.in[topology.Local]
		ni.data = noc.NewWire[noc.DataFlit](t, cfg.LocalLatency, 1, &r.cal, dataBit(topology.Local))
		ni.creditIn = noc.NewWire[noc.VCCredit](t, cfg.CreditLatency, 1, &ni.cal, niBit)
		local.data, local.creditOut = ni.data, ni.creditIn
		// Ejection: router Local output -> sink.
		r.out[topology.Local].data = n.Sinks[id].Data
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
	c := n.Terminals.Counts()
	for _, r := range n.routers {
		c.CrcDetected += r.crcRepaired
		for p := range r.out {
			if o := &r.out[p]; o.exists {
				c.CorruptedFlits += o.data.Corrupted()
			}
		}
	}
	return c
}

// Tick implements noc.Network: one cycle for every NI, router, and sink.
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
