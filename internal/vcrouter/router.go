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
	input     topology.Port // the port the channel belongs to, for life
	route     topology.Port
	outVC     int
	routed    bool
	allocated bool
}

// inputState is one input port: NumVCs virtual channels (its stretch of
// Router.chans) plus the wires to the upstream node (incoming flits, outgoing
// credits).
type inputState struct {
	exists    bool
	vcs       []vcState
	poolUsed  int // total buffered flits (enforced in SharedPool mode)
	data      *sim.Pipe[noc.DataFlit]
	creditOut *sim.Pipe[noc.VCCredit]
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

	// chans holds every input channel of the router: channel c = p·NumVCs + v
	// is input p's virtual channel v, and in[p].vcs is input p's stretch.
	chans []vcState

	// occ and alloc hold one bit per input channel, channel c at bit c&63 of
	// word c>>6: words = ⌈5·NumVCs/64⌉ of them, one for every configuration
	// of at most 12 channels a port. occ is set while the channel holds a
	// flit, alloc while it holds an output VC. The allocators walk the set
	// bits of occ&^alloc and occ&alloc — ascending, the port-major order a
	// scan of the ports and their channels visits them — and never look at
	// the rest.
	occ, alloc []uint64
	words      int
	// portBits[p*words:(p+1)*words] has the bits of input p's channels set.
	// cand and granted are switchAllocate's: output o's bidders at
	// cand[o*words:(o+1)*words], all zero between cycles, and — for a router
	// of several words — the channels of the inputs the crossbar has already
	// connected this cycle.
	portBits, cand, granted []uint64

	// cal is the node's due calendar, shared with its interface and sink:
	// the bits of the data wire into each input and the credit wire into each
	// neighbour output (routerBits). Each wire arms its bit as it carries a
	// flit or credit, and Tick reads only the wires whose bits its cycle's
	// word has.
	cal sim.Calendar

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
	vcReqs   []int // channels
	freeVCs  []int
}

// chanBit locates channel c in occ and alloc: the word and the bit.
func chanBit(c int) (word int, bit uint64) {
	return c >> 6, 1 << (c & 63)
}

// chanPort names channel c's input port and virtual channel.
func (r *Router) chanPort(c int) (topology.Port, int) {
	p := r.chans[c].input
	return p, c - int(p)*r.cfg.NumVCs
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

func newRouter(id topology.NodeID, mesh topology.Mesh, cfg *Config, rng *sim.RNG) *Router {
	nv, ports := cfg.NumVCs, int(topology.NumPorts)
	w := (ports*nv + 63) / 64
	r := &Router{id: id, mesh: mesh, cfg: cfg, rng: rng, words: w, chans: make([]vcState, ports*nv)}
	masks := make([]uint64, (3+2*ports)*w)
	r.occ, r.alloc, r.granted = masks[:w:w], masks[w:2*w:2*w], masks[2*w:3*w:3*w]
	r.cand, r.portBits = masks[3*w:(3+ports)*w:(3+ports)*w], masks[(3+ports)*w:]
	for c := range r.chans {
		word, bit := chanBit(c)
		r.portBits[c/nv*w+word] |= bit
		r.chans[c].input = topology.Port(c / nv)
	}
	for p := topology.Port(0); p < topology.NumPorts; p++ {
		if p != topology.Local && !mesh.HasLink(id, p) {
			continue
		}
		r.in[p] = inputState{exists: true, vcs: r.chans[int(p)*nv : int(p+1)*nv]}
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
// made at; the random stream, the wires, the calendar and the probe are the
// network's to restart, reset, clear and detach.
func (r *Router) reset() {
	clear(r.occ)
	clear(r.alloc)
	clear(r.cand)
	r.crcRepaired = 0
	for c := range r.chans {
		ch := &r.chans[c]
		clear(ch.q)
		*ch = vcState{q: ch.q, input: ch.input}
	}
	for p := range r.in {
		r.in[p].poolUsed = 0
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
// moved something from ticks that woke for nothing. Only the receive stages
// act on the calendar: the allocators run every cycle and make every draw
// they would make polling, so the random stream does not depend on it.
func (r *Router) Tick(now sim.Cycle) {
	work := 0
	cell := r.cal.Cell(now)
	if due := *cell & routerBits; due != 0 {
		*cell &^= routerBits
		work = r.recvCredits(now, due>>numPorts) + r.recvFlits(now, due&portMask)
	}
	work += r.allocateVCs(now)
	work += r.switchAllocate(now)
	r.prof.ComponentTick(profile.CompRouter, int(r.id), work > 0)
}

// recvCredits reads the credit wires into the outputs whose bits are set in
// ports, lowest first.
func (r *Router) recvCredits(now sim.Cycle, ports uint32) int {
	received := 0
	for ; ports != 0; ports &= ports - 1 {
		p := topology.Port(bits.TrailingZeros32(ports))
		o := &r.out[p]
		credits := o.creditIn.Take(now)
		received += len(credits)
		for i := range credits {
			c := &credits[i].Item
			if r.cfg.SharedPool {
				o.pool++
				o.occ[c.VC]--
				if o.pool > r.cfg.BuffersPerInput() || o.occ[c.VC] < 0 {
					panic(fmt.Sprintf("vcrouter: node %d out %s pooled credit overflow", r.id, p))
				}
				continue
			}
			o.credits[c.VC]++
			if o.credits[c.VC] > r.cfg.BufPerVC {
				panic(fmt.Sprintf("vcrouter: node %d out %s vc %d credit overflow", r.id, p, c.VC))
			}
		}
	}
	return received
}

// recvFlits reads the data wires into the inputs whose bits are set in ports,
// lowest first.
func (r *Router) recvFlits(now sim.Cycle, ports uint32) int {
	received := 0
	for ; ports != 0; ports &= ports - 1 {
		p := topology.Port(bits.TrailingZeros32(ports))
		in := &r.in[p]
		flits := in.data.Take(now)
		received += len(flits)
		for i := range flits {
			f := &flits[i].Item
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
					panic(fmt.Sprintf("vcrouter: node %d in %s pooled buffer overflow", r.id, p))
				}
			} else if int(vc.n) >= r.cfg.BufPerVC {
				panic(fmt.Sprintf("vcrouter: node %d in %s vc %d buffer overflow", r.id, p, f.VC))
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
			vc.q[tail] = queuedFlit{flit: *f, arrivedAt: now}
			vc.n++
			in.poolUsed++
			w, bit := chanBit(int(p)*r.cfg.NumVCs + int(f.VC))
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
	for w := range r.occ {
		// Occupied and not yet allocated: a head flit wants a channel.
		for m := r.occ[w] &^ r.alloc[w]; m != 0; m &= m - 1 {
			c := w<<6 + bits.TrailingZeros64(m)
			vc := &r.chans[c]
			head := &vc.q[vc.head].flit
			if !head.Type.IsHead() {
				// A body flit can only be at the front of an
				// unallocated VC if the model leaked state.
				p, v := r.chanPort(c)
				panic(fmt.Sprintf("vcrouter: node %d in %s vc %d: %s at front of unallocated channel", r.id, p, v, *head))
			}
			if !vc.routed {
				route, ok := r.cfg.Routing.NextPort(r.mesh, r.id, topology.NodeID(head.Packet.Dst))
				if !ok {
					panic(fmt.Sprintf("vcrouter: node %d: destination %d unreachable", r.id, head.Packet.Dst))
				}
				vc.route = route
				vc.routed = true
			}
			r.vcReqs = append(r.vcReqs, c)
		}
	}
	// Random arbitration: shuffle request order, then give each request a
	// random free downstream VC.
	sim.Shuffle(r.rng, r.vcReqs)
	for _, c := range r.vcReqs {
		vc := &r.chans[c]
		o := &r.out[vc.route]
		r.freeVCs = r.freeVCs[:0]
		for dv, owned := range o.owned {
			if !owned {
				r.freeVCs = append(r.freeVCs, dv)
			}
		}
		if len(r.freeVCs) == 0 {
			if r.wf != nil {
				r.blockedHead(c, waterfall.StageStall, now)
			}
			continue
		}
		dv := r.freeVCs[r.rng.Intn(len(r.freeVCs))]
		o.owned[dv] = true
		vc.outVC = dv
		vc.allocated = true
		w, bit := chanBit(c)
		r.alloc[w] |= bit
	}
	return len(r.vcReqs)
}

// switchAllocate matches ready input VCs to output channels (one grant per
// input port and one per output port, random arbitration) and performs the
// traversal for each winner. It reports the number of traversals performed.
//
// Each output's bidders are a mask of channel bits. The outputs are served in
// a random order; an output first drops the channels of inputs already
// granted this cycle, then draws its winner as the Intn(bidders)-th set bit,
// lowest first — the candidate a draw over the port-major list of bidders
// picks, so draws, winners and waterfall marks are the list's.
func (r *Router) switchAllocate(now sim.Cycle) int {
	nw, cand, bidders := r.words, r.cand, 0
	for w := range r.occ {
		// Occupied and allocated: the front flit may bid for the switch.
		for m := r.occ[w] & r.alloc[w]; m != 0; m &= m - 1 {
			c := w<<6 + bits.TrailingZeros64(m)
			vc := &r.chans[c]
			if vc.q[vc.head].arrivedAt >= now {
				if r.wf != nil {
					r.blockedHead(c, waterfall.StageArb, now)
				}
				continue // one-cycle routing/scheduling latency
			}
			if !r.hasCredit(&r.out[vc.route], vc.outVC) {
				if r.wf != nil {
					r.blockedHead(c, waterfall.StageStall, now)
				}
				continue
			}
			cand[int(vc.route)*nw+w] |= m & -m
			bidders++
		}
	}
	if bidders == 0 {
		// Nobody bids, so the order the outputs would be served in is never
		// read: skip computing the permutation, not the draws it makes.
		r.rng.Discard(len(r.outOrder) - 1)
		return 0
	}
	r.rng.Perm(r.outOrder[:])
	if nw > 1 {
		return r.serveWords(now)
	}
	// Every channel in one word: the grants fit in a register. Each output's
	// word is zeroed as it is read, so cand is clear for the next cycle.
	// serveWords gives the same grants at one word but runs VC8 6 % slower
	// (DESIGN.md, "The VC lineage").
	var granted uint64 // the channels of the inputs already connected
	traversed := 0
	for _, oi := range r.outOrder {
		bid := cand[oi]
		cand[oi] = 0
		if r.wf != nil {
			r.blockedHeads(bid&granted, 0, now)
		}
		if bid &^= granted; bid == 0 {
			continue
		}
		win := nthBit(bid, r.rng.Intn(bits.OnesCount64(bid)))
		granted |= r.portBits[r.chans[win].input]
		if r.wf != nil {
			r.blockedHeads(bid&^(1<<win), 0, now)
		}
		r.traverse(now, win)
		traversed++
	}
	return traversed
}

// serveWords is switchAllocate's grant loop over channel bits in several
// words.
func (r *Router) serveWords(now sim.Cycle) int {
	nw, granted := r.words, r.granted
	clear(granted)
	traversed := 0
	for _, oi := range r.outOrder {
		bid := r.cand[oi*nw : oi*nw+nw]
		n := 0
		for w := range bid {
			if r.wf != nil {
				r.blockedHeads(bid[w]&granted[w], w, now)
			}
			bid[w] &^= granted[w]
			n += bits.OnesCount64(bid[w])
		}
		if n == 0 {
			continue
		}
		win := -1
		for w, k := 0, r.rng.Intn(n); win < 0; w++ {
			if c := bits.OnesCount64(bid[w]); k >= c {
				k -= c
			} else {
				win = w<<6 + nthBit(bid[w], k)
			}
		}
		p := int(r.chans[win].input)
		for w, ports := range r.portBits[p*nw : p*nw+nw] {
			granted[w] |= ports
		}
		for w := range bid {
			if r.wf != nil {
				lost := bid[w]
				if w == win>>6 {
					lost &^= 1 << (win & 63)
				}
				r.blockedHeads(lost, w, now)
			}
			bid[w] = 0
		}
		r.traverse(now, win)
		traversed++
	}
	return traversed
}

// nthBit returns the index of the k-th lowest set bit of m, which must have
// more than k.
func nthBit(m uint64, k int) int {
	for ; k > 0; k-- {
		m &= m - 1
	}
	return bits.TrailingZeros64(m)
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

// traverse moves the head flit of input channel c onto its output link,
// returns a credit upstream, and releases channel state on tail flits.
func (r *Router) traverse(now sim.Cycle, c int) {
	p, v := r.chanPort(c)
	in := &r.in[p]
	vc := &r.chans[c]
	o := &r.out[vc.route]
	w, bit := chanBit(c)

	f := vc.q[vc.head].flit
	vc.q[vc.head].flit.Packet = nil // the ring outlives the packet
	if vc.head++; int(vc.head) == len(vc.q) {
		vc.head = 0
	}
	if vc.n--; vc.n == 0 {
		r.occ[w] &^= bit
	}
	in.poolUsed--

	if in.creditOut != nil {
		in.creditOut.Send(now, noc.VCCredit{VC: int32(v)})
	}

	f.VC = int32(vc.outVC)
	r.probe.Traverse(now, int(r.id), int(vc.route), uint64(f.Packet.ID), int(f.Seq))
	if r.wf != nil && f.Type.IsHead() && f.Packet.Sampled {
		r.wf.Depart(uint64(f.Packet.ID), 0, now, false)
	}
	o.data.Send(now, f)
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

// blockedHeads charges a lost switch arbitration to the head flit of every
// channel whose bit is set in m, word w of the channel bits, lowest first.
func (r *Router) blockedHeads(m uint64, w int, now sim.Cycle) {
	for ; m != 0; m &= m - 1 {
		r.blockedHead(w<<6+bits.TrailingZeros64(m), waterfall.StageArb, now)
	}
}

// blockedHead charges one cycle of the head flit waiting at the front of
// channel c to the given waterfall stage. Non-head fronts and unsampled
// packets are skipped; the ledger deduplicates to one mark per cycle.
func (r *Router) blockedHead(c int, stage waterfall.Stage, now sim.Cycle) {
	vc := &r.chans[c]
	if vc.n == 0 {
		return
	}
	f := &vc.q[vc.head].flit
	if f.Type.IsHead() && f.Packet.Sampled {
		r.wf.Blocked(uint64(f.Packet.ID), stage, now)
	}
}
