package core

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

// leadState tracks the scheduling progress of one data flit led by a control
// flit resident in this router: its announced arrival at this node and, once
// the output scheduler succeeds, its reserved departure. dead marks a lead
// whose reservation was made toward an output a hard fault severed: its data
// flit departs into the dead wire and is destroyed, so the lead must not be
// announced downstream when the stream re-routes — the new output's table
// never committed it, and the downstream router must not schedule (and
// credit) a flit that can never arrive. The cycles come first and the narrow
// fields after, in 24 bytes.
type leadState struct {
	arrival   sim.Cycle
	departAt  sim.Cycle
	seq       int32
	scheduled bool
	dead      bool
}

// queuedCtrl is a control flit buffered in a control VC queue. Its mutable
// per-lead scheduling state is not in the cell but in the VC's lead-state
// array (ctrlVC.leadsAt), one entry for each of flit.Leads, so that a cell is
// 64 bytes. arrivedAt is the cycle the flit was queued: the tick reads
// "arrived this cycle" off the router's fresh vector instead, and the tests
// hold that vector to this record. admitted records that the output
// reservation table has set aside buffers for all of its leads (per-flit
// scheduling's strand-free admission). routedHere marks the head that
// established the VC's current routing entry, distinguishing a head still
// being scheduled from a fresh head following a stream whose tail a hard
// fault destroyed.
type queuedCtrl struct {
	flit       noc.ControlFlit
	arrivedAt  sim.Cycle
	admitted   bool
	routedHere bool
	// detectedCorrupt marks a flit the modeled hop CRC caught on receive;
	// it is destroyed — stream and leads included, exactly as a hard fault
	// would — once it reaches its queue head, where the per-lead cleanup
	// machinery can run.
	detectedCorrupt bool
}

// ctrlVC is one control virtual channel of one control input — channel
// port·CtrlVCs + vc of its router, which it names — a small FIFO plus the
// routing-table entry (output port) and downstream-VC allocation of the
// packet currently holding the channel. The FIFO is a ring of CtrlBufPerVC
// cells, the n from head holding flits; leads holds LeadsPerCtrl lead states
// for each cell, for the network's life, so queueing a flit allocates nothing
// and dequeueing one moves nothing. drain marks a stream a hard fault
// destroyed mid-flight: followers are discarded until the tail passes (or a
// fresh head shows the tail itself was destroyed).
//
// The whole channel is one 64-byte line. A port, a VC and an output VC fit a
// byte each because Config.validate holds CtrlVCs to DataBuffers and those to
// MaxDataBuffers. head and n fit 32 bits because they index one channel's
// ring of 64-byte cells, and a ring of 2³¹ cells would be 128 GiB.
type ctrlVC struct {
	q         []queuedCtrl
	leads     []leadState
	head, n   int32
	port, vc  uint8
	route     uint8 // a topology.Port, meaningful while routed
	outVC     uint8
	routed    bool
	allocated bool
	drain     bool
}

// cell is the ring cell of the queued flit i places behind the front, which
// is in cell head.
func (vc *ctrlVC) cell(i int) int {
	if i += int(vc.head); i >= len(vc.q) {
		i -= len(vc.q)
	}
	return i
}

func (vc *ctrlVC) front() *queuedCtrl { return &vc.q[vc.head] }

// leadsAt returns the lead states of the flit in ring cell c, one for each of
// the leads it carries; d is the stride, Config.LeadsPerCtrl.
func (vc *ctrlVC) leadsAt(c, d int) []leadState {
	k := c * d
	return vc.leads[k : k+len(vc.q[c].flit.Leads)]
}

// pop drops the front flit. The cell lets go of the flit's packet and lead
// array; the rest of it, and its lead states, are rewritten by the next flit
// queued there.
func (vc *ctrlVC) pop() {
	qc := &vc.q[vc.head]
	qc.flit.Packet, qc.flit.Leads = nil, nil
	if vc.head++; int(vc.head) == len(vc.q) {
		vc.head = 0
	}
	vc.n--
}

// ctrlInput is the control-network side of one router input; vcs is its
// port's stretch of the router's channels.
type ctrlInput struct {
	exists    bool
	vcs       []ctrlVC
	in        *sim.Pipe[noc.ControlFlit]
	creditOut *sim.Pipe[noc.VCCredit]
}

// ctrlOutput is the control-network side of one router output: credit
// counters and ownership for the downstream control VCs.
type ctrlOutput struct {
	exists   bool
	credits  []int
	owned    []bool
	out      *sim.Pipe[noc.ControlFlit]
	creditIn *sim.Pipe[noc.VCCredit]
}

// tentative is one departure committed by all-or-nothing scheduling before
// the control flit's whole lead set is known to fit.
type tentative struct {
	lead int
	td   sim.Cycle
}

// Router is one flit-reservation router (Figure 3). It is assembled and
// ticked by Network.
type Router struct {
	id   topology.NodeID
	mesh topology.Mesh
	cfg  *Config // the Network's one copy
	rng  sim.RNG

	// cal is the node's due calendar (calendar.go), shared with its
	// interface and sink: the wires into each port that deliver at a cycle, the inputs
	// with a pool flit departing and those with a reservation falling due.
	// Each wire arms its bit as it carries an item, the inputs arm their own,
	// and Tick acts on the bits of its cycle alone. dormant records that the
	// last tick left nothing that needs a look every cycle — no control flit
	// queued and, under reclamation, no flit parked — so that until a bit
	// falls due a tick can change nothing, and Tick returns at its guard. The
	// fault engine, which cuts wires and rewrites router state from outside,
	// re-arms every calendar from the state it left and wakes (resync).
	cal     sim.Calendar
	dormant bool

	ctrlIn  [topology.NumPorts]ctrlInput
	ctrlOut [topology.NumPorts]ctrlOutput
	// chans holds the router's control VCs, channel port·CtrlVCs + vc, a
	// port's CtrlVCs of them side by side (the ports a border router lacks
	// keep theirs, empty). occ has a bit set for every channel whose queue
	// holds a flit, and fresh for every one whose front flit arrived this
	// cycle: enqueue sets it on filling an empty channel and candidates
	// clears it, so it is zero between ticks.
	chans      []ctrlVC
	occ, fresh occupancy
	// queued counts the control flits held across all control VC queues;
	// with none, there is nothing to arbitrate or schedule this cycle.
	queued int

	// outTables[p] is the output reservation table for output port p;
	// the Local entry governs the ejection channel and treats the
	// downstream (reassembly buffers) as unbounded.
	outTables [topology.NumPorts]outResTable
	// inputs[p] is the data-side input reservation table and buffer pool
	// for input port p; the Local entry is the injection port fed by the
	// node's network interface.
	inputs [topology.NumPorts]inputPort

	dataOut      [topology.NumPorts]*sim.Pipe[noc.DataFlit]
	dataCreditIn [topology.NumPorts]*sim.Pipe[noc.ReservationCredit]

	// sink is the node's ejection interface, told (Expect) which packet's
	// flit will arrive on the ejection link at a given cycle; data flits are
	// identified solely by time, so this is the reassembly schedule the
	// destination control flits set up.
	sink *Sink

	hooks *noc.Hooks
	// crcDetected counts the corrupted flits, control and data, the hop CRC
	// caught (crcDetect).
	crcDetected int64

	// probe is the observability sink; nil when disabled, and every call
	// on a nil probe is a no-op.
	probe *metrics.Probe

	// prof is the self-profiling registry cached off the probe at attach
	// time so the per-tick accounting costs one nil test when disabled.
	prof *profile.Registry

	// wf is the latency-stage ledger cached off the probe at attach time;
	// nil when latency provenance is disabled. The FR router charges a
	// buffered head flit's whole residence to the Sched stage at departure —
	// its wait is by construction the pre-reserved slot, and the bypass path
	// contributes zero.
	wf *waterfall.Ledger

	// progress points at the network-wide movement counter the no-progress
	// watchdog monitors; the router bumps it whenever a flit moves.
	progress *int64

	cands     []uint16    // scratch, room for every channel
	committed []tentative // scratch of all-or-nothing scheduling, room for a flit's leads

	// leadArrays is the network's free list of control-flit lead arrays, to
	// which consume returns the array of each flit it retires.
	leadArrays *noc.LeadArrays
}

// init lays the router out in place on the arena's memory — its tables, pools
// and control queues, every one at its full size — for reset to fill.
func (r *Router) init(a *arena, id topology.NodeID, mesh topology.Mesh, cfg *Config) {
	chans := int(topology.NumPorts) * cfg.CtrlVCs
	*r = Router{id: id, mesh: mesh, cfg: cfg,
		cal:       carve(&a.cal, sim.CalendarCells(cfg.calendarReach())),
		chans:     carve(&a.vcs, chans),
		occ:       carve(&a.words, occupancyWords(chans)),
		fresh:     carve(&a.words, occupancyWords(chans)),
		cands:     carve(&a.cands, chans)[:0],
		committed: carve(&a.undo, cfg.LeadsPerCtrl)[:0],
	}
	for p := topology.Port(0); p < topology.NumPorts; p++ {
		if p != topology.Local && !mesh.HasLink(id, p) {
			continue
		}
		var ledger *eagerLedger
		if cfg.TrackEagerTransfers {
			ledger = newEagerLedger(cfg.DataBuffers)
		}
		r.inputs[p].init(a, p, &r.cal, cfg.DataBuffers, cfg.Horizon, ledger, cfg.DataFaultRate > 0 || cfg.BER > 0 || len(cfg.Faults) > 0)
		r.outTables[p].init(a, cfg.Horizon, cfg.DataBuffers, cfg.CtrlVCs, r.dataLatencyFor(p), p == topology.Local)
		ci := &r.ctrlIn[p]
		*ci = ctrlInput{exists: true, vcs: r.chans[int(p)*cfg.CtrlVCs : int(p+1)*cfg.CtrlVCs]}
		for v := range ci.vcs {
			ci.vcs[v] = ctrlVC{q: carve(&a.queued, cfg.CtrlBufPerVC),
				leads: carve(&a.leads, cfg.CtrlBufPerVC*cfg.LeadsPerCtrl), port: uint8(p), vc: uint8(v)}
		}
		if p != topology.Local {
			r.ctrlOut[p] = ctrlOutput{exists: true,
				credits: carve(&a.counts, cfg.CtrlVCs),
				owned:   carve(&a.flags, cfg.CtrlVCs)}
		}
	}
}

// reset returns the router to its just-built state: nothing in flight toward
// it or its interface and so nothing on the calendar, awake, every control
// queue empty and unrouted, every downstream control buffer credited and
// unowned, tables and input ports as built. The lead
// arrays of the flits the control queues held go back to the network's free
// list; the random stream, the wires and the probe are the network's to
// restart, reset and detach.
func (r *Router) reset() {
	clear(r.cal)
	r.dormant = false
	r.queued = 0
	r.crcDetected = 0
	clear(r.occ)
	clear(r.fresh)
	for ch := range r.chans {
		vc := &r.chans[ch]
		for vc.n > 0 {
			r.leadArrays.Put(vc.front().flit.Leads)
			vc.pop()
		}
		*vc = ctrlVC{q: vc.q, leads: vc.leads, port: vc.port, vc: vc.vc}
	}
	for p := range r.ctrlIn {
		if !r.ctrlIn[p].exists {
			continue
		}
		co := &r.ctrlOut[p]
		for v := range co.credits {
			co.credits[v] = r.cfg.CtrlBufPerVC
			co.owned[v] = false
		}
		r.outTables[p].reset()
		r.inputs[p].reset()
	}
}

// attachProbe points the router at the observability probe; nil detaches.
func (r *Router) attachProbe(p *metrics.Probe) {
	r.probe = p
	r.prof = p.Profile()
	r.wf = p.Waterfall()
}

// dataLatencyFor is the data propagation delay out of the given output port.
func (r *Router) dataLatencyFor(p topology.Port) sim.Cycle {
	if p == topology.Local {
		return r.cfg.LocalLatency
	}
	return r.cfg.DataLinkLatency
}

// Tick advances the router one cycle, in the order that makes the
// intra-cycle dataflow of Section 3 work out: credits bring the reservation
// state current, control flits are processed (possibly reserving an arrival
// happening this very cycle), then data flits depart and finally arrive.
//
// It acts on the calendar's word for now: it reads the wires whose bits are
// set, searches for departures the pools whose bits are set, and expires
// reservations whose bits are set, port by port in ascending order as a tick
// that polled everything would find them, so every receive, departure, random
// draw and profile count lands on the cycle and in the order it would. A wire
// is read with one Take of the cycle's arrival slot: its sends armed every
// cycle it delivers at, so no read arms it again. A dormant router whose word
// is empty has nothing due and nothing queued, draws no random number and so
// returns at once, still reporting the (idle) tick to the profile. The output tables are not slid here but where
// they are next used (below for credits, in scheduleLeads for reservations):
// advance catches up over any gap and what it reveals depends only on state
// those same uses change, so a late slide writes the cells an every-cycle
// slide would have.
func (r *Router) Tick(now sim.Cycle) {
	cell := r.cal.Cell(now)
	due := *cell &^ (niBits | sinkBit)
	if due == 0 && r.dormant {
		r.prof.RouterTick(int(r.id), 0, 0, 0, 0)
		return
	}
	// Self-profiling work counters: credit messages absorbed, arbitration
	// work units, data flits through the crossbar. Plain integer adds, so
	// the disabled-profiling cost is negligible.
	var arb, sw, cred int
	ports := (due>>(uint(ctrlWire)*numPorts) | due>>(uint(resvCreditWire)*numPorts) | due>>(uint(ctrlCreditWire)*numPorts)) & portMask
	for ; ports != 0; ports &= ports - 1 {
		p := topology.Port(bits.TrailingZeros32(ports))
		if bit := wireBit(resvCreditWire, p); due&bit != 0 {
			creditIn, table := r.dataCreditIn[p], &r.outTables[p]
			table.advance(now)
			credits := creditIn.Take(now)
			for i := range credits {
				table.creditFrom(credits[i].Item.FreeFrom, int(credits[i].Item.VC))
			}
			cred += len(credits)
		}
		if bit := wireBit(ctrlCreditWire, p); due&bit != 0 {
			co := &r.ctrlOut[p]
			credits := co.creditIn.Take(now)
			for i := range credits {
				vc := credits[i].Item.VC
				if co.credits[vc]++; co.credits[vc] > r.cfg.CtrlBufPerVC {
					panic("core: control credit overflow")
				}
			}
			cred += len(credits)
		}
		if bit := wireBit(ctrlWire, p); due&bit != 0 {
			flits := r.ctrlIn[p].in.Take(now)
			for i := range flits {
				r.enqueue(now, p, &flits[i].Item)
			}
			arb += len(flits)
		}
	}

	var sched int
	if r.queued > 0 {
		var walked int
		walked, sched = r.processControl(now)
		arb += walked
		// Scheduling can file a reservation, or condemn an arrival, for this
		// very cycle.
		due = *cell &^ (niBits | sinkBit)
	}

	for ins := due >> departShift & portMask; ins != 0; ins &= ins - 1 {
		in := &r.inputs[bits.TrailingZeros32(ins)]
		for slot := in.departing(now, 0); slot >= 0; slot = in.departing(now, slot+1) {
			f, out := in.release(slot)
			sw++
			r.sendData(now, &f, out)
		}
	}
	ins := (due | due>>expireShift) & portMask
	if r.cfg.ReclaimCycles > 0 {
		ins |= r.parkedInputs()
	}
	for ; ins != 0; ins &= ins - 1 {
		p := topology.Port(bits.TrailingZeros32(ins))
		in := &r.inputs[p]
		if bit := wireBit(dataWire, p); due&bit != 0 {
			flits := in.dataIn.Take(now)
			for i := range flits {
				r.arrive(now, p, &flits[i].Item)
			}
			sw += len(flits)
		}
		// Any reservation for this cycle still unclaimed means the flit was
		// destroyed en route — an idle pattern arrived in its place. Drop
		// the reservation; every later table the control flit touched
		// cleans itself up the same way.
		if due&in.expireBit != 0 {
			in.expire(now)
		}
		if r.cfg.ReclaimCycles > 0 {
			in.reclaim(now, r.cfg.ReclaimCycles, func(f noc.DataFlit) {
				r.hooks.Dropped(f.Packet, now)
			})
		}
	}
	*cell &= sinkBit
	r.prof.RouterTick(int(r.id), sched, arb, sw, cred)
	r.dormant = r.queued == 0 && (r.cfg.ReclaimCycles == 0 || r.parkedInputs() == 0)
}

// parkedInputs has a bit set for each input holding a flit on its schedule
// list; under reclamation those are looked at every cycle.
func (r *Router) parkedInputs() uint32 {
	var m uint32
	for p := range r.inputs {
		if len(r.inputs[p].parked) > 0 {
			m |= 1 << p
		}
	}
	return m
}

// enqueue files a control flit just received on port p at the back of its
// VC's queue, the flit's leads copied into the cell's own scheduling state.
func (r *Router) enqueue(now sim.Cycle, p topology.Port, cf *noc.ControlFlit) {
	vc := &r.ctrlIn[p].vcs[cf.VC]
	if int(vc.n) == len(vc.q) {
		panic(fmt.Sprintf("core: node %d control buffer overflow on %s vc %d", r.id, p, cf.VC))
	}
	c := vc.cell(int(vc.n))
	qc := &vc.q[c]
	*qc = queuedCtrl{flit: *cf, arrivedAt: now}
	leads := vc.leadsAt(c, r.cfg.LeadsPerCtrl)
	for i, le := range cf.Leads {
		leads[i] = leadState{arrival: le.Arrival, departAt: sim.Never, seq: le.Seq}
	}
	if cf.Corrupted {
		r.probe.Corrupt(int(r.id))
		// The detection draw happens at receive so RNG order is
		// a function of link traffic alone, not of queueing.
		if r.crcDetect() {
			qc.detectedCorrupt = true
		}
	}
	if vc.n == 0 {
		ch := int(p)*r.cfg.CtrlVCs + int(cf.VC)
		r.occ.set(ch)
		r.fresh.set(ch)
	}
	vc.n++
	r.queued++
}

// arrive takes a data flit off input p's wire: into the pool, straight out
// again on the bypass path, or — damaged, orphaned or refused — into the loss
// path.
func (r *Router) arrive(now sim.Cycle, p topology.Port, f *noc.DataFlit) {
	in := &r.inputs[p]
	if r.wf != nil && f.Seq == 0 && f.Packet.Sampled {
		r.wf.Arrive(uint64(f.Packet.ID), uint8(f.Attempt), now)
	}
	if f.Corrupted {
		r.probe.Corrupt(int(r.id))
		if r.crcDetect() {
			// The hop CRC caught the damage: the flit is discarded into the
			// established loss path — its reservation expires unclaimed and
			// the destination's no-show detection triggers the end-to-end
			// retry.
			r.hooks.Dropped(f.Packet, now)
			return
		}
	}
	if in.condemnedArrival(now) {
		// The control flit that was to schedule this data flit was destroyed
		// by a hard fault; the flit has nowhere to go and would park forever.
		r.hooks.Dropped(f.Packet, now)
		return
	}
	switch how, out := in.arrive(now, f); how {
	case bypassed:
		r.sendData(now, f, out)
	case parked:
		if r.probe != nil { // a late reservation: data ahead of its control flit
			r.probe.Late(now, int(r.id), int(p), uint64(f.Packet.ID), int(f.Seq))
		}
	case refused:
		// Phantom-orphaned flits overcommitted the pool; the refused flit is
		// destroyed and recovered end to end.
		r.hooks.Dropped(f.Packet, now)
	}
}

// crcDetect draws whether the modeled c-bit hop CRC catches a corrupted
// flit, detection probability 1 − 2⁻ᶜ, and counts a catch. CrcBits < 0
// disables hop checking entirely (every corruption escapes to the end-to-end
// layer). The draw consumes the router's RNG only when a corrupted flit is
// actually examined, so corruption-free traffic replays bit-identically
// whether or not CRC modeling is configured.
func (r *Router) crcDetect() bool {
	if r.cfg.CrcBits < 0 {
		return false
	}
	caught := r.rng.Bool(1 - math.Exp2(-float64(r.cfg.CrcBits)))
	if caught {
		r.crcDetected++
	}
	return caught
}

// ctrlLossy reports whether control flits can be destroyed in flight in
// this configuration — by hard faults or by CRC-discarded corruption. The
// stream-repair paths it gates would mask real scheduling defects in a
// loss-free run, so they stay panics otherwise.
func (r *Router) ctrlLossy() bool {
	return len(r.cfg.Faults) > 0 || r.cfg.BER > 0
}

// sendData launches a data flit onto an output link, subject to fault
// injection on inter-router links.
func (r *Router) sendData(now sim.Cycle, f *noc.DataFlit, out topology.Port) {
	*r.progress++
	if out != topology.Local && r.cfg.DataFaultRate > 0 && r.rng.Bool(r.cfg.DataFaultRate) {
		r.hooks.Dropped(f.Packet, now)
		return
	}
	if r.probe != nil {
		r.probe.Traverse(now, int(r.id), int(out), uint64(f.Packet.ID), int(f.Seq))
	}
	if r.wf != nil && f.Seq == 0 && f.Packet.Sampled {
		r.wf.Depart(uint64(f.Packet.ID), uint8(f.Attempt), now, true)
	}
	r.dataOut[out].Send(now, *f)
}

// processControl walks the control flits at the front of every control VC in
// random order — the paper's random arbitration — performing routing, output
// scheduling, input scheduling, and forwarding. Each output scheduler
// processes at most CtrlFlitsPerCycle control flits per cycle, matching the
// control network's bandwidth. It reports the self-profiling work counts:
// arb candidates walked by the arbiter and sched output-scheduler
// invocations.
func (r *Router) processControl(now sim.Cycle) (arb, sched int) {
	r.candidates()
	sim.Shuffle(&r.rng, r.cands)
	var budget [topology.NumPorts]int
	for p := range budget {
		budget[p] = r.cfg.CtrlFlitsPerCycle
	}
	arb = len(r.cands)
	for _, ch := range r.cands {
		vc := &r.chans[ch]
		qc := vc.front()
		if vc.drain {
			if qc.flit.Type.IsHead() {
				// A fresh head while draining means the old stream's
				// tail was itself destroyed; the new stream is intact.
				vc.drain = false
			} else {
				r.discardCtrl(now, vc)
				continue
			}
		}
		if qc.detectedCorrupt {
			// CRC-caught corruption: destroy the flit and its stream's
			// remainder exactly as a hard fault would — the leads'
			// no-shows surface at the destination as losses and the
			// end-to-end retry recovers the packet.
			r.discardCtrl(now, vc)
			continue
		}
		if vc.routed && !qc.routedHere && qc.flit.Type.IsHead() && r.ctrlLossy() {
			// The previous stream's tail died on a severed wire before it
			// could close the channel; a new head can only follow a
			// complete (or destroyed) stream, so close the old one out.
			r.endStream(vc)
		}
		if !vc.routed {
			if !qc.flit.Type.IsHead() {
				if r.ctrlLossy() {
					// Mid-stream loss (a severed wire or a CRC-discarded
					// flit) broke the wormhole framing; discard to the
					// tail.
					r.discardCtrl(now, vc)
					continue
				}
				panic(fmt.Sprintf("core: node %d: %s at front of unrouted control VC", r.id, qc.flit))
			}
			route, ok := r.cfg.Routing.NextPort(r.mesh, r.id, topology.NodeID(qc.flit.Dst))
			if !ok {
				// No surviving route to the destination. Destroy the
				// stream here; the source resolves the packet through
				// the unreachable fast path or its retry budget.
				r.discardCtrl(now, vc)
				continue
			}
			vc.route = uint8(route)
			vc.routed = true
			qc.routedHere = true
			if r.probe != nil {
				r.probe.Route(now, int(r.id), int(route), uint64(qc.flit.Packet.ID))
			}
		}
		out := topology.Port(vc.route)
		if budget[out] <= 0 {
			r.probe.ArbConflict(int(r.id), int(out))
			continue
		}
		budget[out]--
		// Away from the destination, the packet's downstream control VC
		// is allocated before any of its reservations are made, so that
		// every downstream buffer residency is attributable to a
		// control VC — the bookkeeping behind the pool-reservation
		// deadlock-avoidance rule.
		if out != topology.Local && !vc.allocated && !r.allocateCtrlVC(vc, out) {
			r.probe.CreditStall(int(r.id), int(out))
			continue
		}
		sched++
		if !r.scheduleLeads(now, qc, vc, out) {
			continue
		}
		if out == topology.Local {
			r.consume(now, vc)
		} else {
			r.forward(now, vc, out)
		}
	}
	return arb, sched
}

// candidates gathers into r.cands the control channels whose front flit
// arrived before this cycle — the set bits of occ &^ fresh, in ascending
// order, which is port-major and VC-minor — and clears fresh as it reads it.
func (r *Router) candidates() {
	r.cands = r.cands[:0]
	for w, m := range r.occ {
		m &^= r.fresh[w]
		r.fresh[w] = 0
		for ; m != 0; m &= m - 1 {
			r.cands = append(r.cands, uint16(w<<6+bits.TrailingZeros64(m)))
		}
	}
}

// allocateCtrlVC gives the packet at the head of vc a downstream control VC
// on output port out, chosen uniformly among the free ones; it reports false
// when all are owned.
func (r *Router) allocateCtrlVC(vc *ctrlVC, out topology.Port) bool {
	co := &r.ctrlOut[out]
	free := -1
	nfree := 0
	for dv, owned := range co.owned {
		if !owned {
			nfree++
			if r.rng.Intn(nfree) == 0 {
				free = dv
			}
		}
	}
	if free == -1 {
		return false
	}
	co.owned[free] = true
	vc.outVC = uint8(free)
	vc.allocated = true
	return true
}

// scheduleLeads runs the output scheduler for every still-unscheduled data
// flit of qc and reports whether all are now scheduled. In the default
// per-flit mode, each success is committed immediately (its reservation
// signal and upstream credit go out even if a sibling fails); in
// all-or-nothing mode the whole set commits or none does. Reservations are
// attributed to the packet's downstream control VC (its input VC at the
// destination, where no control VC is consumed).
func (r *Router) scheduleLeads(now sim.Cycle, qc *queuedCtrl, vc *ctrlVC, out topology.Port) bool {
	leads, inPort := vc.leadsAt(int(vc.head), r.cfg.LeadsPerCtrl), topology.Port(vc.port)
	table := &r.outTables[out]
	table.advance(now)
	tp := r.dataLatencyFor(out)
	attrVC := int(vc.outVC) // meaningful only when out != Local; ejection ignores it
	if out == topology.Local {
		attrVC = 0
	}
	if r.cfg.AllOrNothing {
		r.committed = r.committed[:0]
		for i := range leads {
			if leads[i].scheduled {
				continue
			}
			td, ok := table.findDeparture(now, leads[i].arrival, tp, attrVC)
			if !ok {
				for _, t := range r.committed {
					table.uncommit(t.td, tp, attrVC)
				}
				r.probe.ReserveMiss(int(r.id), int(out))
				return false
			}
			table.commit(td, tp, attrVC)
			r.committed = append(r.committed, tentative{lead: i, td: td})
		}
		for _, t := range r.committed {
			if r.probe != nil {
				r.probe.ReserveHit(now, int(r.id), int(out), uint64(qc.flit.Packet.ID), t.td)
			}
			r.finalizeLead(now, qc, &leads[t.lead], t.td, out, inPort)
		}
		return true
	}
	// Per-flit mode: the control flit is first admitted — all of its
	// leads' buffers claimed downstream — so that the data flits released
	// early can never be stranded waiting for a control flit that cannot
	// finish scheduling (the wedge analyzed on outResTable.claims).
	if !qc.admitted {
		k := 0
		for i := range leads {
			if !leads[i].scheduled {
				k++
			}
		}
		if !table.admit(attrVC, k) {
			r.probe.ReserveMiss(int(r.id), int(out))
			return false
		}
		qc.admitted = true
	}
	allDone := true
	for i := range leads {
		ld := &leads[i]
		if ld.scheduled {
			continue
		}
		td, ok := table.findDeparture(now, ld.arrival, tp, attrVC)
		if !ok {
			r.probe.ReserveMiss(int(r.id), int(out))
			allDone = false
			continue
		}
		table.releaseClaim(attrVC)
		table.commit(td, tp, attrVC)
		if r.probe != nil {
			r.probe.ReserveHit(now, int(r.id), int(out), uint64(qc.flit.Packet.ID), td)
		}
		r.finalizeLead(now, qc, ld, td, out, inPort)
	}
	return allDone
}

// finalizeLead records a successful reservation: the input scheduler learns
// the departure, a credit announcing the buffer's future release returns
// upstream, and — at the destination — the sink learns which packet's flit
// the ejection channel will deliver and when.
func (r *Router) finalizeLead(now sim.Cycle, qc *queuedCtrl, ld *leadState, td sim.Cycle, out, inPort topology.Port) {
	in := &r.inputs[inPort]
	// A corrupted control flit that escaped the hop CRC installs phantom
	// reservations: table state the real data flit must never be claimed
	// by, because the announced schedule is garbage. Everything else about
	// the flit's progress — credits, forwarding, sink notification —
	// proceeds normally, which is exactly the silent-corruption hazard.
	in.reserve(now, ld.arrival, td, out, qc.flit.Corrupted)
	if in.creditOut != nil {
		// The freed residency is attributed to the control VC this
		// flit arrived on, which is the upstream scheduler's VC for
		// this link.
		in.creditOut.Send(now, noc.ReservationCredit{FreeFrom: td, VC: qc.flit.VC})
	}
	ld.scheduled = true
	ld.departAt = td
	if out == topology.Local {
		r.sink.Expect(now, td+r.cfg.LocalLatency, qc.flit.Packet, ld.seq, qc.flit.Attempt)
	}
}

// consume retires a control flit at its destination: every data flit it led
// has been scheduled into the ejection channel, so the control flit's work is
// done. Its buffer is freed (credit upstream) and on a tail the control VC's
// routing entry is released.
func (r *Router) consume(now sim.Cycle, vc *ctrlVC) {
	isTail := vc.front().flit.Type.IsTail()
	// Nothing downstream will read the flit's lead list: this router holds the
	// only reference to it (noc.ControlFlit.Leads), and drops it here.
	r.leadArrays.Put(vc.front().flit.Leads)
	r.popCtrl(now, vc)
	if isTail {
		r.endStream(vc)
	}
}

// forward sends a fully scheduled control flit to the next router, rewriting
// each lead's arrival time to the cycle its data flit will reach that router
// (t_d + t_p). The downstream control VC was allocated before scheduling;
// credits and link bandwidth gate the send, and a blocked flit simply
// retries next cycle.
func (r *Router) forward(now sim.Cycle, vc *ctrlVC, out topology.Port) {
	co := &r.ctrlOut[out]
	qc := vc.front()
	if !vc.allocated {
		panic("core: forwarding a control flit with no allocated downstream VC")
	}
	if co.credits[vc.outVC] <= 0 || !co.out.CanSend(now) {
		r.probe.CreditStall(int(r.id), int(out))
		return
	}
	r.probe.CtrlForward(int(r.id), int(out))
	// The flit's lead list is this router's to rewrite (see
	// noc.ControlFlit.Leads), and leads only ever drop out, so the rewritten
	// list fits the array it arrived in.
	leads := vc.leadsAt(int(vc.head), r.cfg.LeadsPerCtrl)
	nf := qc.flit
	nf.VC = int32(vc.outVC)
	nf.Leads = nf.Leads[:0]
	for _, ld := range leads {
		if ld.dead {
			continue // scheduled into a severed wire; the flit dies there
		}
		nf.Leads = append(nf.Leads, noc.LeadEntry{Seq: ld.seq, Arrival: ld.departAt + r.cfg.DataLinkLatency})
	}
	co.out.Send(now, nf)
	co.credits[vc.outVC]--
	isTail := qc.flit.Type.IsTail()
	r.popCtrl(now, vc)
	if isTail {
		r.endStream(vc)
	}
}

// discardCtrl destroys the control flit at the front of vc after a hard
// fault cut its route or broke its stream. Its unscheduled leads' data flits
// are destroyed too: ones already parked are dropped now, future arrivals
// are condemned so they are dropped on sight. Scheduled leads keep their
// reservations — that data is real and departs normally (dying on the
// severed wire if its route is gone). The flit's buffer credit flows
// upstream as usual, the stream ends here — its downstream control VC is
// released, since no later flit of it will be forwarded — and the VC drains
// until the stream's tail passes.
//
// Each destroyed unscheduled lead still holds a buffer residency in the
// upstream scheduler's table (debited at commit, normally released by
// finalizeLead's credit). The lead will never be finalized, so the residency
// is released here — otherwise every discarded stream would leak upstream
// buffers until its source wedges.
func (r *Router) discardCtrl(now sim.Cycle, vc *ctrlVC) {
	qc, leads := vc.front(), vc.leadsAt(int(vc.head), r.cfg.LeadsPerCtrl)
	inPort := topology.Port(vc.port)
	in := &r.inputs[inPort]
	for i := range leads {
		ld := &leads[i]
		if ld.scheduled {
			continue
		}
		if f, ok := in.dropParked(ld.arrival); ok {
			r.hooks.Dropped(f.Packet, now)
		} else if ld.arrival >= now {
			in.condemn(ld.arrival)
		}
		if in.creditOut != nil && !in.creditOut.Severed() {
			freeFrom := now
			if ld.arrival > freeFrom {
				freeFrom = ld.arrival
			}
			in.creditOut.Send(now, noc.ReservationCredit{FreeFrom: freeFrom, VC: qc.flit.VC})
		}
	}
	isTail := qc.flit.Type.IsTail()
	r.endStream(vc)
	r.popCtrl(now, vc)
	vc.drain = !isTail
}

// severOutput reacts to output port p's link dying: every control stream
// routed to p is cut loose — its channel state cleared and its remaining
// flits marked for draining — because the stream can never make progress
// again (routes computed after the fault avoid p, and everything the stream
// already sent into the wire is destroyed).
func (r *Router) severOutput(p topology.Port) {
	for ch := range r.chans {
		vc := &r.chans[ch]
		if !vc.routed || topology.Port(vc.route) != p {
			continue
		}
		r.endStream(vc)
		vc.drain = true
		// Claims the queued flits held on the dying output's table die
		// with the table; if a still-queued head survives to re-route,
		// it must be re-admitted on the new output from scratch. Leads
		// already scheduled into the dying output die with it too —
		// their data is destroyed on the wire, so the re-routed stream
		// must not announce them downstream.
		for i := 0; i < int(vc.n); i++ {
			c := vc.cell(i)
			vc.q[c].admitted = false
			leads := vc.leadsAt(c, r.cfg.LeadsPerCtrl)
			for j := range leads {
				if leads[j].scheduled {
					leads[j].dead = true
				}
			}
		}
	}
}

// endStream closes the stream vc carries: the downstream control VC it holds
// from head to tail, if it holds one, is released, and the channel unrouted.
// Every way a stream ends — its tail leaving or consumed, its flits discarded,
// its output severed, a fresh head finding it never closed — ends it here.
func (r *Router) endStream(vc *ctrlVC) {
	if vc.allocated {
		r.ctrlOut[vc.route].owned[vc.outVC] = false
	}
	vc.routed, vc.allocated = false, false
}

// popCtrl dequeues the front control flit of a VC and returns its buffer
// credit upstream. The cell lets go of the flit for the next to arrive, so
// callers must be done with the front before they pop.
func (r *Router) popCtrl(now sim.Cycle, vc *ctrlVC) {
	*r.progress++
	vc.pop()
	if vc.n == 0 {
		r.occ.clear(int(vc.port)*r.cfg.CtrlVCs + int(vc.vc))
	}
	r.queued--
	inPort := topology.Port(vc.port)
	if creditOut := r.ctrlIn[inPort].creditOut; creditOut != nil {
		creditOut.Send(now, noc.VCCredit{VC: int32(vc.vc)})
	}
}

// pendingWork reports whether any control or data state is still in flight
// inside the router, used by drain checks.
func (r *Router) pendingWork() int {
	n := r.queued
	for p := range r.inputs {
		n += r.inputs[p].pending()
	}
	return n
}
