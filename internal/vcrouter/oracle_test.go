package vcrouter

import (
	"fmt"
	"reflect"
	"testing"

	"frfc/internal/metrics"
	"frfc/internal/noc"
	"frfc/internal/sim"
	"frfc/internal/topology"
	"frfc/internal/trace"
	"frfc/internal/waterfall"
)

// The allocators walk router-wide channel words. Everything downstream of
// them — every Intn draw, the winner of each output, the order winners
// traverse the crossbar in and the waterfall marks of the heads that lose —
// depends on the order they enumerate in, so they are held here to the scans
// they replaced, port by port over the channels' own state with a list of
// candidates per output, from random router states.

// portVC names one virtual channel of one input port.
type portVC struct {
	port topology.Port
	vc   int
}

// chanOf is the channel index of input p's virtual channel v.
func (r *Router) chanOf(pv portVC) int { return int(pv.port)*r.cfg.NumVCs + pv.vc }

// refAllocateVCs is allocateVCs as a scan: requests in port-major order,
// shuffled, then each given a random free downstream channel.
func refAllocateVCs(r *Router, now sim.Cycle) int {
	var reqs []portVC
	for p := range r.in {
		for v := range r.in[p].vcs {
			vc := &r.in[p].vcs[v]
			if vc.n == 0 || vc.allocated {
				continue
			}
			if !vc.routed {
				route, _ := r.cfg.Routing.NextPort(r.mesh, r.id, topology.NodeID(vc.q[vc.head].flit.Packet.Dst))
				vc.route, vc.routed = route, true
			}
			reqs = append(reqs, portVC{topology.Port(p), v})
		}
	}
	for i := len(reqs) - 1; i > 0; i-- {
		j := r.rng.Intn(i + 1)
		reqs[i], reqs[j] = reqs[j], reqs[i]
	}
	for _, req := range reqs {
		vc := &r.in[req.port].vcs[req.vc]
		o := &r.out[vc.route]
		var free []int
		for dv, owned := range o.owned {
			if !owned {
				free = append(free, dv)
			}
		}
		if len(free) == 0 {
			if r.wf != nil {
				r.blockedHead(r.chanOf(req), waterfall.StageStall, now)
			}
			continue
		}
		dv := free[r.rng.Intn(len(free))]
		o.owned[dv], vc.outVC, vc.allocated = true, dv, true
		w, bit := chanBit(r.chanOf(req))
		r.alloc[w] |= bit
	}
	return len(reqs)
}

// refSwitchAllocate is switchAllocate as a scan: bidders collected port-major
// into one list per output, the outputs served in a random order, each
// dropping the bidders of inputs already granted and drawing its winner from
// what is left. It also reports the bidders that lost to another.
func refSwitchAllocate(r *Router, now sim.Cycle) (traversed, lost int) {
	var saCand [topology.NumPorts][]portVC
	bidders := 0
	for p := range r.in {
		for v := range r.in[p].vcs {
			vc := &r.in[p].vcs[v]
			if vc.n == 0 || !vc.allocated {
				continue
			}
			c := r.chanOf(portVC{topology.Port(p), v})
			if vc.q[vc.head].arrivedAt >= now {
				if r.wf != nil {
					r.blockedHead(c, waterfall.StageArb, now)
				}
				continue
			}
			if !r.hasCredit(&r.out[vc.route], vc.outVC) {
				if r.wf != nil {
					r.blockedHead(c, waterfall.StageStall, now)
				}
				continue
			}
			saCand[vc.route] = append(saCand[vc.route], portVC{topology.Port(p), v})
			bidders++
		}
	}
	if bidders == 0 {
		r.rng.Discard(len(r.outOrder) - 1)
		return 0, 0
	}
	r.rng.Perm(r.outOrder[:])
	var inputGranted [topology.NumPorts]bool
	for _, oi := range r.outOrder {
		var cands []portVC
		for _, c := range saCand[oi] {
			if !inputGranted[c.port] {
				cands = append(cands, c)
			} else if r.wf != nil {
				r.blockedHead(r.chanOf(c), waterfall.StageArb, now)
			}
		}
		if len(cands) == 0 {
			continue
		}
		win := cands[r.rng.Intn(len(cands))]
		inputGranted[win.port] = true
		lost += len(cands) - 1
		if r.wf != nil {
			for _, c := range cands {
				if c != win {
					r.blockedHead(r.chanOf(c), waterfall.StageArb, now)
				}
			}
		}
		r.traverse(now, r.chanOf(win))
		traversed++
	}
	return traversed, lost
}

// oracleRouter builds a router in a random state from seed alone, so two
// calls with one seed build two identical routers: channels holding part of a
// packet or none, allocated or not, routed or not, fronts that arrived this
// cycle or earlier, downstream credits, pooled or per-channel, and ownership
// all drawn. Every wire is the test's; observed attaches a tracer and a
// waterfall ledger holding every sampled head as resident.
func oracleRouter(nv int, seed uint64, observed bool, now sim.Cycle) *Router {
	rng := sim.NewRNG(seed)
	cfg := Config{NumVCs: nv, BufPerVC: 1 + rng.Intn(4), SharedPool: rng.Bool(0.3), LinkLatency: 1}.withDefaults()
	mesh := topology.NewMesh(4)
	r := newRouter([]topology.NodeID{0, 5, 7}[rng.Intn(3)], mesh, &cfg, sim.NewRNG(rng.Uint64()))
	if observed {
		r.wf = waterfall.New()
		r.probe = &metrics.Probe{Tracer: trace.New(1 << 12), WF: r.wf}
	}
	var ports []topology.Port
	for p := range r.in {
		if !r.in[p].exists {
			continue
		}
		ports = append(ports, topology.Port(p))
		in, o := &r.in[p], &r.out[p]
		in.data = sim.NewPipe[noc.DataFlit](1, 1)
		in.creditOut = sim.NewPipe[noc.VCCredit](1, 1)
		o.data = sim.NewPipe[noc.DataFlit](1, 1)
		o.creditIn = sim.NewPipe[noc.VCCredit](1, 1)
		o.pool = rng.Intn(cfg.BuffersPerInput() + 1)
		for v := range o.credits {
			o.credits[v], o.occ[v], o.owned[v] = rng.Intn(cfg.BufPerVC+1), rng.Intn(2), rng.Bool(0.5)
		}
	}
	depth := cfg.BufPerVC
	if cfg.SharedPool {
		depth = cfg.BuffersPerInput()
	}
	pid := noc.PacketID(0)
	for _, p := range ports {
		in := &r.in[p]
		for v := range in.vcs {
			if !rng.Bool(0.6) {
				continue
			}
			vc, n := &in.vcs[v], 1+rng.Intn(cfg.BufPerVC)
			vc.q, vc.head, vc.n = make([]queuedFlit, depth), int32(rng.Intn(depth)), int32(n)
			vc.allocated = rng.Bool(0.6)
			first := 0 // the front flit's Seq: only an allocated channel is mid-packet
			if vc.allocated && rng.Bool(0.5) {
				first = 1 + rng.Intn(3)
			}
			pid++
			pkt := &noc.Packet{ID: pid, Dst: int32(rng.Intn(mesh.N())), Sampled: rng.Bool(0.7)}
			pkt.Len = int32(first + n + rng.Intn(3))
			for i := 0; i < n; i++ {
				seq, typ := first+i, noc.BodyFlit
				switch {
				case seq == 0 && pkt.Len == 1:
					typ = noc.HeadTailFlit
				case seq == 0:
					typ = noc.HeadFlit
				case seq == int(pkt.Len)-1:
					typ = noc.TailFlit
				}
				vc.q[(int(vc.head)+i)%depth] = queuedFlit{
					flit:      noc.DataFlit{Packet: pkt, Seq: int32(seq), Type: typ, VC: int32(v)},
					arrivedAt: now - 2 + sim.Cycle(rng.Intn(3)),
				}
			}
			in.poolUsed += n
			if vc.allocated || rng.Bool(0.5) {
				vc.route, vc.routed = ports[rng.Intn(len(ports))], true
			}
			if vc.allocated {
				vc.outVC = rng.Intn(nv)
			}
			w, bit := chanBit(r.chanOf(portVC{p, v}))
			r.occ[w] |= bit
			if vc.allocated {
				r.alloc[w] |= bit
			}
			if r.wf != nil && first == 0 && pkt.Sampled {
				r.wf.InjectStart(uint64(pid), 0, 0, 0)
				r.wf.HeadWire(uint64(pid), 0, 0)
				r.wf.Arrive(uint64(pid), 0, vc.q[vc.head].arrivedAt)
			}
		}
	}
	return r
}

// wireItems lists what every wire out of the router holds, in order.
func wireItems(r *Router) (flits [][]noc.DataFlit, credits [][]noc.VCCredit) {
	for p := range r.in {
		if !r.in[p].exists {
			continue
		}
		var f []noc.DataFlit
		var c []noc.VCCredit
		r.out[p].data.Each(func(x noc.DataFlit) { f = append(f, x) })
		r.in[p].creditOut.Each(func(x noc.VCCredit) { c = append(c, x) })
		flits, credits = append(flits, f), append(credits, c)
	}
	return flits, credits
}

// takeWires takes what falls due at cycle now off every wire out of the
// router, as its neighbours would.
func takeWires(r *Router, now sim.Cycle) {
	for p := range r.in {
		if r.in[p].exists {
			r.out[p].data.Take(now)
			r.in[p].creditOut.Take(now)
		}
	}
}

// sameState reports the first difference between the mask allocators'
// router and the scans'.
func sameState(a, b *Router) error {
	switch {
	case *a.rng != *b.rng:
		return fmt.Errorf("the random streams parted")
	case !reflect.DeepEqual(a.chans, b.chans):
		return fmt.Errorf("the channels differ")
	case !reflect.DeepEqual(a.occ, b.occ) || !reflect.DeepEqual(a.alloc, b.alloc):
		return fmt.Errorf("occ %b alloc %b, the scans' %b and %b", a.occ, a.alloc, b.occ, b.alloc)
	}
	for p := range a.out {
		oa, ob := &a.out[p], &b.out[p]
		if a.in[p].poolUsed != b.in[p].poolUsed || oa.pool != ob.pool || !reflect.DeepEqual(oa.credits, ob.credits) ||
			!reflect.DeepEqual(oa.occ, ob.occ) || !reflect.DeepEqual(oa.owned, ob.owned) {
			return fmt.Errorf("port %s: buffers, credits or ownership differ", topology.Port(p))
		}
	}
	fa, ca := wireItems(a)
	fb, cb := wireItems(b)
	if !reflect.DeepEqual(fa, fb) || !reflect.DeepEqual(ca, cb) {
		return fmt.Errorf("the wires out differ: flits %v credits %v, the scans' %v and %v", fa, ca, fb, cb)
	}
	if a.probe != nil {
		if !reflect.DeepEqual(a.probe.Tracer.Events(), b.probe.Tracer.Events()) {
			return fmt.Errorf("the traversal order differs: %v, the scans' %v", a.probe.Tracer.Events(), b.probe.Tracer.Events())
		}
		if !reflect.DeepEqual(a.wf, b.wf) {
			return fmt.Errorf("the waterfall marks differ")
		}
	}
	return nil
}

// TestAllocatorsMatchTheScans: from random router states, with one word of
// channel bits and with several, observed and not, allocateVCs and
// switchAllocate make the draws, grants, traversals (in order) and waterfall
// marks of the port-major scans over per-output candidate lists they
// replaced, and leave the random stream where the scans leave it, cycle after
// cycle as the state they leave evolves.
func TestAllocatorsMatchTheScans(t *testing.T) {
	for _, nv := range []int{1, 2, 4, 8, 13, 70} {
		traversed, lost := 0, 0
		for trial := 0; trial < 150; trial++ {
			seed, observed, now := uint64(1000*nv+trial), trial%2 == 0, sim.Cycle(10)
			a, b := oracleRouter(nv, seed, observed, now), oracleRouter(nv, seed, observed, now)
			*b.rng = *a.rng
			for ; now < 14; now++ {
				takeWires(a, now)
				takeWires(b, now)
				reqs, wantReqs := a.allocateVCs(now), refAllocateVCs(b, now)
				got := a.switchAllocate(now)
				want, l := refSwitchAllocate(b, now)
				if reqs != wantReqs || got != want {
					t.Fatalf("%d VCs, trial %d, cycle %d: %d requests and %d traversals, the scans %d and %d", nv, trial, now, reqs, got, wantReqs, want)
				}
				if err := sameState(a, b); err != nil {
					t.Fatalf("%d VCs, trial %d, cycle %d: %v", nv, trial, now, err)
				}
				traversed += got
				lost += l
			}
		}
		t.Logf("%d VCs: %d traversals, %d lost", nv, traversed, lost)
		if traversed < 200 || lost < 30 {
			t.Fatalf("%d VCs: %d traversals and %d lost arbitrations; the states drawn exercise little", nv, traversed, lost)
		}
	}
}
