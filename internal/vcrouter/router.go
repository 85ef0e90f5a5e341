package vcrouter

import (
	"fmt"
	"math"
	"math/bits"

	"frfc/internal/metrics"
	"frfc/internal/noc"
	"frfc/internal/profile"
	"frfc/internal/sim"
	"frfc/internal/topology"
	"frfc/internal/waterfall"
)

// queuedFlit is a buffered flit together with its arrival cycle; a flit may
// not leave the router before the cycle after it arrived, which models the
// paper's one-cycle routing-and-scheduling latency.
type queuedFlit struct {
	flit      noc.DataFlit
	arrivedAt sim.Cycle
}

// vcState is the per-virtual-channel bookkeeping of one input port: the flit
// queue plus the route and output-VC allocation of the packet currently
// occupying the channel. The queue is a ring of exactly the channel's
// capacity — n flits starting at head — made when the first flit arrives, so
// a channel no packet ever crosses costs nothing and a dequeue moves nothing.
type vcState struct {
	q         []queuedFlit
	head, n   int32
	route     topology.Port
	outVC     int
	routed    bool
	allocated bool
}

// inputState is one input port: NumVCs virtual channels plus the wires to the
// upstream node (incoming flits, outgoing credits).
type inputState struct {
	exists     bool
	vcs        []vcState
	poolUsed   int // total buffered flits (enforced in SharedPool mode)
	data       *sim.Pipe[noc.DataFlit]
	creditOut  *sim.Pipe[noc.VCCredit]
	creditPeer *int32 // the upstream node's count of credits in flight to it
}

// outputState is one output port: per-downstream-VC credit counters and
// ownership, plus the wires to the downstream node.
type outputState struct {
	exists   bool
	infinite bool  // ejection port: the sink never runs out of buffers
	credits  []int // per downstream VC
	pool     int   // pooled credits (SharedPool mode)
	// occ tracks, in SharedPool mode, how many pooled buffers each
	// downstream VC currently holds; the DAMQ reservation rule keeps one
	// buffer available for every other empty VC so a single blocked
	// packet cannot consume the whole pool and deadlock the channel
	// (the safeguard [TamFra92]'s dynamically-allocated queues carry).
	occ      []int
	owned    []bool
	data     *sim.Pipe[noc.DataFlit]
	dataPeer *int32 // the downstream node's count of flits in flight to it
	creditIn *sim.Pipe[noc.VCCredit]
}

// Router is one virtual-channel router. It is assembled and ticked by
// Network; the type is exported only for white-box testing within the
// package tree.
type Router struct {
	id   topology.NodeID
	mesh topology.Mesh
	cfg  *Config // the Network's one copy
	rng  *sim.RNG

	in  [topology.NumPorts]inputState
	out [topology.NumPorts]outputState

	// occ and alloc hold one bit per input channel, words 64-channel words to
	// a port, port p's at [p*words, (p+1)*words): occ is set while the
	// channel holds a flit, alloc while it holds an output VC. The allocators
	// walk the set bits of occ&^alloc and occ&alloc — ascending, the order a
	// scan of the ports and their channels visits them — and never look at
	// the rest.
	occ, alloc []uint64
	words      int

	// flitsIn[p] counts the flits in flight on the data wire into input p,
	// creditsIn[p] the credits in flight on the credit wire into output p.
	// Whoever sends counts the item in (post) and Tick counts it out, so a
	// wire whose cell is zero is not read.
	flitsIn, creditsIn [topology.NumPorts]int32

	// crcRepaired counts the corrupted flits the hop CRC caught (crcDetect).
	crcRepaired int64

	// probe is the observability sink; nil when disabled, and every call
	// on a nil probe is a no-op.
	probe *metrics.Probe

	// prof is the self-profiling registry cached off the probe at attach
	// time; nil when profiling is disabled.
	prof *profile.Registry

	// wf is the latency-stage ledger cached off the probe at attach time;
	// nil when latency provenance is disabled. While a sampled head flit
	// waits at the front of its channel, each cycle is charged to exactly
	// one stage: no free output VC or no credit → Stall, pipeline latency
	// or a lost switch arbitration → Arb. Cycles spent queued behind a
	// predecessor packet carry no mark and fall to Stall at departure.
	wf *waterfall.Ledger

	// Scratch buffers reused every cycle to keep the hot loop
	// allocation-free.
	outOrder [topology.NumPorts]int
	vcReqs   []portVC
	saCand   [topology.NumPorts][]portVC
	freeVCs  []int
}

// portVC names one virtual channel of one input port.
type portVC struct {
	port topology.Port
	vc   int
}

// chanBit locates input channel (p, v) in occ and alloc: the word and the bit.
func (r *Router) chanBit(p topology.Port, v int) (word int, bit uint64) {
	return int(p)*r.words + v>>6, 1 << (v & 63)
}

// post puts an item on a wire and counts it into the receiver's in-flight
// cell; every send in the package goes through it.
func post[T any](wire *sim.Pipe[T], inFlight *int32, now sim.Cycle, item T) {
	wire.Send(now, item)
	*inFlight++
}

func newRouter(id topology.NodeID, mesh topology.Mesh, cfg *Config, rng *sim.RNG) *Router {
	r := &Router{id: id, mesh: mesh, cfg: cfg, rng: rng, words: (cfg.NumVCs + 63) / 64}
	masks := make([]uint64, 2*r.words*int(topology.NumPorts))
	r.occ, r.alloc = masks[:len(masks)/2], masks[len(masks)/2:]
	for p := topology.Port(0); p < topology.NumPorts; p++ {
		if p != topology.Local && !mesh.HasLink(id, p) {
			continue
		}
		r.in[p] = inputState{exists: true, vcs: make([]vcState, cfg.NumVCs)}
		r.out[p] = outputState{
			exists:   true,
			infinite: p == topology.Local,
			credits:  make([]int, cfg.NumVCs),
			occ:      make([]int, cfg.NumVCs),
			owned:    make([]bool, cfg.NumVCs),
		}
	}
	r.reset()
	return r
}

// reset returns the router to its just-built state: every channel empty,
// unrouted and unallocated, every downstream buffer credited and unowned,
// nothing in flight toward it. The channel rings keep the depth they were
// made at; the random stream, the wires and the probe are the network's to
// restart, reset and detach.
func (r *Router) reset() {
	clear(r.occ)
	clear(r.alloc)
	r.flitsIn, r.creditsIn = [topology.NumPorts]int32{}, [topology.NumPorts]int32{}
	r.crcRepaired = 0
	for p := range r.in {
		in := &r.in[p]
		for v := range in.vcs {
			q := in.vcs[v].q
			clear(q)
			in.vcs[v] = vcState{q: q}
		}
		in.poolUsed = 0
		o := &r.out[p]
		if !o.exists {
			continue
		}
		o.pool = r.cfg.BuffersPerInput()
		for v := range o.credits {
			o.credits[v], o.occ[v], o.owned[v] = r.cfg.BufPerVC, 0, false
		}
	}
}

// Tick advances the router one cycle: absorb credits and flits, route and
// allocate virtual channels, then perform switch allocation and traversal.
// Each stage reports its work count so the self-profiler can tell ticks that
// moved something from ticks that woke for nothing.
func (r *Router) Tick(now sim.Cycle) {
	work := r.recvCredits(now)
	work += r.recvFlits(now)
	work += r.allocateVCs(now)
	work += r.switchAllocate(now)
	r.prof.ComponentTick(profile.CompRouter, int(r.id), work > 0)
}

func (r *Router) recvCredits(now sim.Cycle) int {
	received := 0
	for p := range r.creditsIn {
		if r.creditsIn[p] == 0 {
			continue
		}
		o := &r.out[p]
		for {
			c, ok := o.creditIn.Recv(now)
			if !ok {
				break
			}
			r.creditsIn[p]--
			received++
			if r.cfg.SharedPool {
				o.pool++
				o.occ[c.VC]--
				if o.pool > r.cfg.BuffersPerInput() || o.occ[c.VC] < 0 {
					panic(fmt.Sprintf("vcrouter: node %d out %s pooled credit overflow", r.id, topology.Port(p)))
				}
				continue
			}
			o.credits[c.VC]++
			if o.credits[c.VC] > r.cfg.BufPerVC {
				panic(fmt.Sprintf("vcrouter: node %d out %s vc %d credit overflow", r.id, topology.Port(p), c.VC))
			}
		}
	}
	return received
}

func (r *Router) recvFlits(now sim.Cycle) int {
	received := 0
	for p := range r.flitsIn {
		if r.flitsIn[p] == 0 {
			continue
		}
		in := &r.in[p]
		for {
			f, ok := in.data.Recv(now)
			if !ok {
				break
			}
			r.flitsIn[p]--
			received++
			if r.wf != nil && f.Type.IsHead() && f.Packet.Sampled {
				r.wf.Arrive(uint64(f.Packet.ID), 0, now)
			}
			if f.Corrupted {
				r.probe.Corrupt(int(r.id))
				if r.crcDetect() {
					// The hop CRC caught the corruption. Credit-based
					// flow control has no drop-and-recover path — a
					// dropped flit would wedge its wormhole forever — so
					// detection models a zero-cost link-level retransmit
					// that restores the payload in place.
					f.Corrupted = false
				}
			}
			vc := &in.vcs[f.VC]
			if r.cfg.SharedPool {
				if in.poolUsed >= r.cfg.BuffersPerInput() {
					panic(fmt.Sprintf("vcrouter: node %d in %s pooled buffer overflow", r.id, topology.Port(p)))
				}
			} else if int(vc.n) >= r.cfg.BufPerVC {
				panic(fmt.Sprintf("vcrouter: node %d in %s vc %d buffer overflow", r.id, topology.Port(p), f.VC))
			}
			if vc.q == nil {
				// A pooled channel may come to hold the whole pool.
				depth := r.cfg.BufPerVC
				if r.cfg.SharedPool {
					depth = r.cfg.BuffersPerInput()
				}
				vc.q = make([]queuedFlit, depth)
			}
			tail := int(vc.head + vc.n)
			if tail >= len(vc.q) {
				tail -= len(vc.q)
			}
			vc.q[tail] = queuedFlit{flit: f, arrivedAt: now}
			vc.n++
			in.poolUsed++
			w, bit := r.chanBit(topology.Port(p), f.VC)
			r.occ[w] |= bit
		}
	}
	return received
}

// crcDetect reports whether the modeled c-bit hop CRC catches a corrupted
// flit, probability 1 - 2^-c, and counts a catch. It draws randomness only
// when a corrupted flit is examined, so configurations without bit errors keep
// their RNG streams — and their behavior — bit-identical to builds without the
// error model.
func (r *Router) crcDetect() bool {
	c := r.cfg.CrcBits
	if c < 0 {
		return false
	}
	caught := r.rng.Bool(1 - math.Exp2(-float64(c)))
	if caught {
		r.crcRepaired++
	}
	return caught
}

// allocateVCs routes head flits and assigns them a free virtual channel on
// the downstream input of the routed output port, with random arbitration
// among competing heads. It reports the number of allocation requests
// arbitrated.
func (r *Router) allocateVCs(now sim.Cycle) int {
	r.vcReqs = r.vcReqs[:0]
	for p := range r.in {
		in := &r.in[p]
		for w := 0; w < r.words; w++ {
			// Occupied and not yet allocated: a head flit wants a channel.
			for m := r.occ[p*r.words+w] &^ r.alloc[p*r.words+w]; m != 0; m &= m - 1 {
				v := w<<6 + bits.TrailingZeros64(m)
				vc := &in.vcs[v]
				head := &vc.q[vc.head].flit
				if !head.Type.IsHead() {
					// A body flit can only be at the front of an
					// unallocated VC if the model leaked state.
					panic(fmt.Sprintf("vcrouter: node %d in %s vc %d: %s at front of unallocated channel", r.id, topology.Port(p), v, *head))
				}
				if !vc.routed {
					route, ok := r.cfg.Routing.NextPort(r.mesh, r.id, head.Packet.Dst)
					if !ok {
						panic(fmt.Sprintf("vcrouter: node %d: destination %d unreachable", r.id, head.Packet.Dst))
					}
					vc.route = route
					vc.routed = true
				}
				r.vcReqs = append(r.vcReqs, portVC{topology.Port(p), v})
			}
		}
	}
	// Random arbitration: shuffle request order, then give each request a
	// random free downstream VC.
	for i := len(r.vcReqs) - 1; i > 0; i-- {
		j := r.rng.Intn(i + 1)
		r.vcReqs[i], r.vcReqs[j] = r.vcReqs[j], r.vcReqs[i]
	}
	for _, req := range r.vcReqs {
		vc := &r.in[req.port].vcs[req.vc]
		o := &r.out[vc.route]
		r.freeVCs = r.freeVCs[:0]
		for dv, owned := range o.owned {
			if !owned {
				r.freeVCs = append(r.freeVCs, dv)
			}
		}
		if len(r.freeVCs) == 0 {
			if r.wf != nil {
				r.blockedHead(req.port, req.vc, waterfall.StageStall, now)
			}
			continue
		}
		dv := r.freeVCs[r.rng.Intn(len(r.freeVCs))]
		o.owned[dv] = true
		vc.outVC = dv
		vc.allocated = true
		w, bit := r.chanBit(req.port, req.vc)
		r.alloc[w] |= bit
	}
	return len(r.vcReqs)
}

// switchAllocate matches ready input VCs to output channels (one grant per
// input port and one per output port, random arbitration) and performs the
// traversal for each winner. It reports the number of traversals performed.
func (r *Router) switchAllocate(now sim.Cycle) int {
	traversed := 0
	for p := range r.saCand {
		r.saCand[p] = r.saCand[p][:0]
	}
	bidders := 0
	for p := range r.in {
		in := &r.in[p]
		for w := 0; w < r.words; w++ {
			// Occupied and allocated: the front flit may bid for the switch.
			for m := r.occ[p*r.words+w] & r.alloc[p*r.words+w]; m != 0; m &= m - 1 {
				v := w<<6 + bits.TrailingZeros64(m)
				vc := &in.vcs[v]
				if vc.q[vc.head].arrivedAt >= now {
					if r.wf != nil {
						r.blockedHead(topology.Port(p), v, waterfall.StageArb, now)
					}
					continue // one-cycle routing/scheduling latency
				}
				if !r.hasCredit(&r.out[vc.route], vc.outVC) {
					if r.wf != nil {
						r.blockedHead(topology.Port(p), v, waterfall.StageStall, now)
					}
					continue
				}
				r.saCand[vc.route] = append(r.saCand[vc.route], portVC{topology.Port(p), v})
				bidders++
			}
		}
	}
	if bidders == 0 {
		// Nobody bids, so the order the outputs would be served in is never
		// read: skip computing the permutation, not the draws it makes.
		r.rng.Discard(len(r.outOrder) - 1)
		return 0
	}
	r.rng.Perm(r.outOrder[:])
	var inputGranted [topology.NumPorts]bool
	for _, oi := range r.outOrder {
		cands := r.saCand[oi]
		// Filter candidates whose input port was already granted this
		// cycle (the crossbar connects each input once per cycle).
		n := 0
		for _, c := range cands {
			if !inputGranted[c.port] {
				cands[n] = c
				n++
			} else if r.wf != nil {
				r.blockedHead(c.port, c.vc, waterfall.StageArb, now)
			}
		}
		cands = cands[:n]
		if len(cands) == 0 {
			continue
		}
		win := cands[r.rng.Intn(len(cands))]
		inputGranted[win.port] = true
		if r.wf != nil {
			for _, c := range cands {
				if c != win {
					r.blockedHead(c.port, c.vc, waterfall.StageArb, now)
				}
			}
		}
		r.traverse(now, win.port, win.vc)
		traversed++
	}
	return traversed
}

func (r *Router) hasCredit(o *outputState, vc int) bool {
	if o.infinite {
		return true
	}
	if r.cfg.SharedPool {
		// DAMQ reservation: leave one pooled buffer for every other VC
		// that holds nothing downstream.
		reserve := 0
		for w, n := range o.occ {
			if w != vc && n == 0 {
				reserve++
			}
		}
		return o.pool > reserve
	}
	return o.credits[vc] > 0
}

// traverse moves the head flit of the given input VC onto its output link,
// returns a credit upstream, and releases channel state on tail flits.
func (r *Router) traverse(now sim.Cycle, p topology.Port, v int) {
	in := &r.in[p]
	vc := &in.vcs[v]
	o := &r.out[vc.route]

	f := vc.q[vc.head].flit
	vc.q[vc.head].flit.Packet = nil // the ring outlives the packet
	if vc.head++; int(vc.head) == len(vc.q) {
		vc.head = 0
	}
	w, bit := r.chanBit(p, v)
	if vc.n--; vc.n == 0 {
		r.occ[w] &^= bit
	}
	in.poolUsed--

	if in.creditOut != nil {
		post(in.creditOut, in.creditPeer, now, noc.VCCredit{VC: v})
	}

	f.VC = vc.outVC
	r.probe.Traverse(now, int(r.id), int(vc.route), uint64(f.Packet.ID), f.Seq)
	if r.wf != nil && f.Type.IsHead() && f.Packet.Sampled {
		r.wf.Depart(uint64(f.Packet.ID), 0, now, false)
	}
	post(o.data, o.dataPeer, now, f)
	if !o.infinite {
		if r.cfg.SharedPool {
			o.pool--
			o.occ[vc.outVC]++
			if o.pool < 0 {
				panic("vcrouter: pooled credit underflow")
			}
		} else {
			o.credits[vc.outVC]--
			if o.credits[vc.outVC] < 0 {
				panic("vcrouter: credit underflow")
			}
		}
	}
	if f.Type.IsTail() {
		o.owned[vc.outVC] = false
		vc.allocated = false
		vc.routed = false
		r.alloc[w] &^= bit
	}
}

// blockedHead charges one cycle of the head flit waiting at the front of
// input (p, v) to the given waterfall stage. Non-head fronts and unsampled
// packets are skipped; the ledger deduplicates to one mark per cycle.
func (r *Router) blockedHead(p topology.Port, v int, stage waterfall.Stage, now sim.Cycle) {
	vc := &r.in[p].vcs[v]
	if vc.n == 0 {
		return
	}
	f := &vc.q[vc.head].flit
	if f.Type.IsHead() && f.Packet.Sampled {
		r.wf.Blocked(uint64(f.Packet.ID), stage, now)
	}
}

// bufferUsage reports occupied and total data-flit buffers across the
// router's existing input ports.
func (r *Router) bufferUsage() (used, capacity int) {
	for p := range r.in {
		if !r.in[p].exists {
			continue
		}
		used += r.in[p].poolUsed
		capacity += r.cfg.BuffersPerInput()
	}
	return used, capacity
}
