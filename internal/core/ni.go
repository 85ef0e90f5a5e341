package core

import (
	"fmt"

	"frfc/internal/metrics"
	"frfc/internal/noc"
	"frfc/internal/profile"
	"frfc/internal/sim"
	"frfc/internal/topology"
	"frfc/internal/waterfall"
)

// NI is a node's network interface on the injection side. Packet injection
// is scheduled exactly like any other hop (Section 3): the NI keeps an output
// reservation table for the injection channel — busy bits for the channel,
// free-buffer counts for the router's injection pool — and a control flit is
// injected only after it has scheduled the injection times of all its data
// flits. Under leading control (LeadCycles > 0) a data flit's injection is
// additionally deferred at least LeadCycles behind its control flit.
type NI struct {
	node  topology.NodeID
	cfg   *Config // the Network's one copy
	rng   sim.RNG
	hooks *noc.Hooks
	probe *metrics.Probe
	// prof is the self-profiling registry cached off the probe at attach
	// time; nil when profiling is disabled.
	prof *profile.Registry
	// wf is the latency-stage ledger cached off the probe at attach time;
	// nil when latency provenance is disabled.
	wf *waterfall.Ledger

	queue noc.SourceQueue

	injTable outResTable

	active []niPacket // one slot per control VC of the injection link
	// leads is the network's free list of lead arrays, from which each control
	// flit takes its own as it is sent; nil (an interface on its own, in a
	// test) makes one for each.
	leads *noc.LeadArrays

	ctrlCredits []int
	ctrlOwned   []bool

	ctrlOut      *sim.Pipe[noc.ControlFlit]
	ctrlCreditIn *sim.Pipe[noc.VCCredit]
	dataOut      *sim.Pipe[noc.DataFlit]
	resvCreditIn *sim.Pipe[noc.ReservationCredit]

	// cal is the node's due calendar, shared with its router: the
	// interface's two credit wires arm their bits in it (niBits). dormant
	// records that the last tick left the interface idle (see idle), so
	// until a credit falls due, an offer or a retry wakes it a tick only
	// makes its random draw.
	cal     sim.Calendar
	dormant bool

	// sendAt holds scheduled data-flit injections keyed by departure
	// cycle; the injection channel's busy bits make the key unique. The
	// injection table only grants departures in [now+1, now+Horizon] and the
	// entry for now is launched after the cycle's scheduling, so the keys
	// stay inside [now, now+Horizon].
	sendAt cycleRing[flitRef]
	// tds is tryInject's scratch: the departures committed so far for the
	// control flit being scheduled.
	tds []sim.Cycle

	// End-to-end retry state (cfg.RetryLimit > 0). awaiting tracks every
	// offered packet until the destination's acknowledgment arrives;
	// retryAt holds backoff-delayed re-offers keyed by injection cycle;
	// timeouts is the per-packet retry timer queue, FIFO because every
	// deadline is armed as now + RetryTimeout.
	awaiting map[noc.PacketID]*retryState
	retryAt  map[sim.Cycle][]*noc.Packet
	timeouts []niTimeout

	// progress points at the network-wide movement counter the watchdog
	// monitors; the NI bumps it whenever it puts a flit on a wire.
	progress *int64
	// retried counts the packets the interface re-offered (tickRetries).
	retried int64

	// unreachable, when set, reports whether a destination is currently
	// disconnected from this node over the surviving topology. The NI fails
	// such packets fast — PacketUnreachable instead of burning the retry
	// budget — at queue admission, on every topology change, and whenever a
	// loss signal or retry would otherwise re-inject one.
	unreachable func(dst topology.NodeID) bool
}

// retryState tracks one offered packet awaiting its end-to-end outcome.
type retryState struct {
	pkt *noc.Packet
	// attempt is the transmission attempt currently outstanding (0 = the
	// first injection).
	attempt int
	// retryPending marks that a re-offer is scheduled but not yet queued,
	// so duplicate loss signals (NACK plus timeout) for the same attempt
	// trigger only one retry.
	retryPending bool
}

// niTimeout is one armed per-packet retry timer.
type niTimeout struct {
	pid      noc.PacketID
	attempt  int
	deadline sim.Cycle
}

// niPacket is one packet whose control flits are being scheduled and
// injected on one control VC: nextCtrl of its ctrls control flits have gone,
// and each is made (noc.ControlFlitAt) in the cycle it is sent. attempt is the
// transmission attempt the packet started injection as, which a retry
// scheduled before the last flit is out must not change.
type niPacket struct {
	active          bool
	pkt             *noc.Packet
	attempt         int32
	nextCtrl, ctrls int
}

// flitRef names one data flit of one transmission attempt in the two
// per-node schedules keyed by cycle: the interface's pending injections and
// the sink's reassembly schedule. Fields are narrow because every node holds
// a horizon's worth of these cells.
type flitRef struct {
	pkt     *noc.Packet
	seq     int32
	attempt int32
}

// init lays the interface out in place on the arena's memory, for reset to
// fill.
func (n *NI) init(a *arena, node topology.NodeID, cfg *Config, hooks *noc.Hooks) {
	*n = NI{
		node:        node,
		cfg:         cfg,
		hooks:       hooks,
		active:      carve(&a.active, cfg.CtrlVCs),
		ctrlCredits: carve(&a.counts, cfg.CtrlVCs),
		ctrlOwned:   carve(&a.flags, cfg.CtrlVCs),
		tds:         carve(&a.cycles, cfg.LeadsPerCtrl)[:0],
	}
	n.injTable.init(a, cfg.Horizon, cfg.DataBuffers, cfg.CtrlVCs, cfg.LocalLatency, false)
	n.sendAt.init(carve(&a.refs, int(cfg.Horizon)+1))
	n.queue.Room(carve(&a.source, sourceRoom))
	if cfg.RetryLimit > 0 {
		n.awaiting = make(map[noc.PacketID]*retryState)
		n.retryAt = make(map[sim.Cycle][]*noc.Packet)
	}
}

// reset returns the interface to its just-built state: nothing queued,
// mid-injection, scheduled or awaiting an outcome, the injection table as
// built, every control buffer of the router credited and unowned, awake. The
// source queue and the timer queue keep their room; the random stream, the
// wires and the probe are the network's to restart, reset and detach.
func (n *NI) reset() {
	n.queue.Reset()
	n.injTable.reset()
	for v := range n.active {
		n.active[v] = niPacket{}
		n.ctrlCredits[v] = n.cfg.CtrlBufPerVC
		n.ctrlOwned[v] = false
	}
	n.dormant, n.retried = false, 0
	n.sendAt.reset()
	clear(n.awaiting)
	clear(n.retryAt)
	n.timeouts = n.timeouts[:0]
}

func (n *NI) offer(p *noc.Packet) {
	if n.cfg.RetryLimit > 0 {
		n.awaiting[p.ID] = &retryState{pkt: p}
	}
	n.queue.Push(p)
	n.dormant = false
}

// ack releases a packet's retry state: the destination acknowledged
// delivery, so no retry timer or loss notification for it matters anymore.
func (n *NI) ack(pid noc.PacketID) { delete(n.awaiting, pid) }

// loss reacts to a loss notification (NACK) or retry timeout for the given
// attempt of a packet: it schedules a backoff-delayed re-offer, or abandons
// the packet when the retry budget is exhausted. Stale signals — for a
// packet already acknowledged, an attempt already superseded, or an attempt
// whose retry is already scheduled — are ignored.
func (n *NI) loss(pid noc.PacketID, attempt int, now sim.Cycle) {
	st := n.awaiting[pid]
	if st == nil || st.retryPending || attempt != st.attempt {
		return
	}
	if n.unreachable != nil && n.unreachable(topology.NodeID(st.pkt.Dst)) {
		// The loss was no accident: the destination is cut off. Resolve
		// the packet now instead of retrying into a void.
		delete(n.awaiting, pid)
		n.hooks.Unreachable(st.pkt, now)
		return
	}
	if st.attempt >= n.cfg.RetryLimit {
		delete(n.awaiting, pid)
		n.hooks.Abandoned(st.pkt, now)
		return
	}
	st.retryPending = true
	at := now + n.cfg.RetryBackoffBase<<st.attempt
	n.retryAt[at] = append(n.retryAt[at], st.pkt)
	n.dormant = false
}

// tickRetries requeues packets whose retry backoff has elapsed and fires
// per-packet retry timers whose deadline passed without an acknowledgment.
func (n *NI) tickRetries(now sim.Cycle) {
	if ps, ok := n.retryAt[now]; ok {
		delete(n.retryAt, now)
		for _, p := range ps {
			st := n.awaiting[p.ID]
			if st == nil || !st.retryPending {
				continue
			}
			if n.unreachable != nil && n.unreachable(topology.NodeID(p.Dst)) {
				delete(n.awaiting, p.ID)
				n.hooks.Unreachable(p, now)
				continue
			}
			st.retryPending = false
			st.attempt++
			p.Attempts = int32(st.attempt)
			n.probe.Retry(now, int(n.node), uint64(p.ID), st.attempt)
			n.retried++
			n.queue.Push(p)
		}
	}
	fired := 0
	for fired < len(n.timeouts) && n.timeouts[fired].deadline <= now {
		fired++
	}
	if fired > 0 {
		due := n.timeouts[:fired]
		for _, to := range due {
			n.loss(to.pid, to.attempt, now)
		}
		n.timeouts = append(n.timeouts[:0], n.timeouts[fired:]...)
	}
}

// pendingRecovery reports armed retry timers and scheduled re-offers; while
// any exist the network is idle by design (a backoff or timeout is running
// down), so the no-progress watchdog holds off.
func (n *NI) pendingRecovery() int {
	total := len(n.timeouts)
	for _, ps := range n.retryAt {
		total += len(ps)
	}
	return total
}

// failUnreachable fails fast every queued packet whose destination is no
// longer reachable over the surviving topology; the network calls it after
// each topology change. Packets mid-injection are left alone — their loss
// surfaces through the normal timers and resolves through loss().
func (n *NI) failUnreachable(now sim.Cycle) {
	if n.unreachable == nil {
		return
	}
	n.queue.Filter(func(p *noc.Packet) bool {
		if !n.unreachable(topology.NodeID(p.Dst)) {
			return true
		}
		if n.awaiting != nil {
			delete(n.awaiting, p.ID)
		}
		n.hooks.Unreachable(p, now)
		return false
	})
}

func (n *NI) activeCount() int {
	c := 0
	for v := range n.active {
		if n.active[v].active {
			c++
		}
	}
	return c
}

// idle reports whether the interface holds nothing a tick could act on
// without new input: no packet queued or mid-injection, no data flit
// scheduled, no retry timer or backoff running.
func (n *NI) idle() bool {
	return n.queue.Len() == 0 && n.sendAt.len() == 0 && len(n.timeouts) == 0 &&
		len(n.retryAt) == 0 && n.activeCount() == 0
}

// Tick advances the injection interface one cycle, reading a credit wire
// only when the calendar says something on it falls due. A dormant interface
// with no credit due only makes the arbitration draw an idle tick would make,
// so the node's random stream is the same whether or not it slept; its tables
// catch up over the gap when it wakes.
func (n *NI) Tick(now sim.Cycle) {
	cell := n.cal.Cell(now)
	due := *cell & niBits
	if n.dormant && due == 0 {
		if len(n.active) > 1 {
			n.rng.Uint64() // the Intn below, minus the division
		}
		n.prof.ComponentTick(profile.CompNI, int(n.node), false)
		return
	}
	// Self-profiling work counter: credits absorbed, packets started,
	// control flits injected, data flits launched.
	work := 0
	n.injTable.advance(now)
	n.sendAt.advance(now)
	if due != 0 {
		*cell &^= niBits
		if due&niResv != 0 {
			credits := n.resvCreditIn.Take(now)
			for i := range credits {
				n.injTable.creditFrom(credits[i].Item.FreeFrom, int(credits[i].Item.VC))
			}
			work += len(credits)
		}
		if due&niCtrl != 0 {
			credits := n.ctrlCreditIn.Take(now)
			for i := range credits {
				vc := credits[i].Item.VC
				if n.ctrlCredits[vc]++; n.ctrlCredits[vc] > n.cfg.CtrlBufPerVC {
					panic("core: NI control credit overflow")
				}
			}
			work += len(credits)
		}
	}

	if n.cfg.RetryLimit > 0 {
		n.tickRetries(now)
	}

	// Start queued packets on free control VCs. The default FIFO source
	// starts packets strictly one at a time; SourceInterleave lifts that
	// to one packet per control VC.
	for v := range n.active {
		if n.active[v].active || n.ctrlOwned[v] || n.queue.Len() == 0 {
			continue
		}
		if !n.cfg.SourceInterleave && n.activeCount() > 0 {
			break
		}
		p := n.queue.Pop()
		n.ctrlOwned[v] = true
		p.InjectedAt = now
		if n.wf != nil && p.Sampled {
			n.wf.InjectStart(uint64(p.ID), uint8(p.Attempts), p.CreatedAt, now)
		}
		n.active[v] = niPacket{active: true, pkt: p, attempt: p.Attempts,
			ctrls: (int(p.Len) + n.cfg.LeadsPerCtrl - 1) / n.cfg.LeadsPerCtrl}
		work++
	}

	// Schedule and inject control flits, up to the control channel's
	// per-cycle bandwidth, visiting VCs in random order for fairness.
	injected := 0
	start := 0
	if len(n.active) > 1 {
		start = n.rng.Intn(len(n.active))
	}
	for i := 0; i < len(n.active) && injected < n.cfg.CtrlFlitsPerCycle; i++ {
		v := start + i
		if v >= len(n.active) {
			v -= len(n.active)
		}
		for injected < n.cfg.CtrlFlitsPerCycle && n.tryInject(now, v) {
			injected++
		}
	}

	// Launch data flits whose scheduled injection cycle has come.
	if sf, ok := n.sendAt.take(now); ok {
		f := noc.DataFlit{Packet: sf.pkt, Seq: sf.seq, Attempt: sf.attempt, Type: noc.TypeFor(int(sf.seq), int(sf.pkt.Len))}
		if n.probe != nil {
			n.probe.Inject(now, int(n.node), uint64(f.Packet.ID), int(f.Seq))
		}
		if n.wf != nil && f.Seq == 0 && f.Packet.Sampled {
			n.wf.HeadWire(uint64(f.Packet.ID), uint8(f.Attempt), now)
		}
		n.dataOut.Send(now, f)
		*n.progress++
		work++
	}
	n.prof.ComponentTick(profile.CompNI, int(n.node), work+injected > 0)
	n.dormant = n.idle()
}

// tryInject attempts to schedule and inject the next control flit of the
// packet on VC v. A control flit goes out only in a cycle where (a) the
// control channel can carry it, (b) a control buffer is free downstream, and
// (c) every data flit it leads was successfully scheduled on the injection
// channel — so LeadCycles is honored relative to the control flit's actual
// injection cycle.
func (n *NI) tryInject(now sim.Cycle, v int) bool {
	ap := &n.active[v]
	if !ap.active {
		return false
	}
	if n.ctrlCredits[v] <= 0 || !n.ctrlOut.CanSend(now) {
		n.probe.CreditStall(int(n.node), int(topology.Local))
		return false
	}

	// Schedule all data flits this control flit leads — the next LeadsPerCtrl
	// of the packet, or what is left of it; all-or-nothing so the control flit
	// can carry final injection times. Data injection is deferred at least
	// LeadCycles behind this control flit (leading control); findDeparture
	// never returns earlier than now+1.
	d := n.cfg.LeadsPerCtrl
	minTA := now + n.cfg.LeadCycles
	tds := n.tds[:0]
	for seq := ap.nextCtrl * d; seq < min(ap.nextCtrl*d+d, int(ap.pkt.Len)); seq++ {
		td, ok := n.injTable.findDeparture(now, minTA, n.cfg.LocalLatency, v)
		if !ok {
			for _, td := range tds {
				n.injTable.uncommit(td, n.cfg.LocalLatency, v)
			}
			n.probe.ReserveMiss(int(n.node), int(topology.Local))
			return false
		}
		n.injTable.commit(td, n.cfg.LocalLatency, v)
		tds = append(tds, td)
	}
	// The control flit is made now that it can go, its lead list — an array
	// off the network's free list, which travels with it — carrying the final
	// arrival times.
	cf := noc.ControlFlitAt(ap.pkt, ap.nextCtrl, d, n.leads.Take(d))
	cf.VC, cf.Attempt = int32(v), ap.attempt
	for i, td := range tds {
		if n.probe != nil {
			n.probe.ReserveHit(now, int(n.node), int(topology.Local), uint64(cf.Packet.ID), td)
		}
		ld := &cf.Leads[i]
		ld.Arrival = td + n.cfg.LocalLatency
		if !n.sendAt.put(td, flitRef{pkt: ap.pkt, seq: ld.Seq, attempt: cf.Attempt}) {
			panic("core: NI scheduled two data flits on one injection cycle")
		}
	}
	n.ctrlOut.Send(now, cf)
	*n.progress++
	n.ctrlCredits[v]--
	ap.nextCtrl++
	if ap.nextCtrl == ap.ctrls {
		// The packet is fully committed to the network; arm its retry
		// timer. Deadlines are armed in injection order with a constant
		// offset, keeping the timeout queue FIFO.
		if n.cfg.RetryTimeout > 0 {
			if st := n.awaiting[ap.pkt.ID]; st != nil && !st.retryPending && st.attempt == int(ap.pkt.Attempts) {
				n.timeouts = append(n.timeouts, niTimeout{pid: ap.pkt.ID, attempt: st.attempt, deadline: now + n.cfg.RetryTimeout})
			}
		}
		n.ctrlOwned[v] = false
		ap.active = false
		ap.pkt = nil
	}
	return true
}

// pendingWork reports queued packets plus unsent control and data flits.
func (n *NI) pendingWork() int {
	w := n.queue.Len() + n.sendAt.len()
	for v := range n.active {
		if n.active[v].active {
			w += n.active[v].ctrls - n.active[v].nextCtrl
		}
	}
	return w
}

// Sink is a node's network interface on the ejection side. Data flits are
// identified purely by when they arrive; the destination control flits set up
// the reassembly schedule via Expect, and the sink cross-checks each arriving
// flit against it — a corrupted schedule is a simulator bug and panics.
//
// Reassembly is attempt-aware: under end-to-end retry the flits of a retried
// packet carry a higher attempt number than stragglers of the lost attempt,
// so the sink can discard the stragglers and assemble the retry cleanly.
type Sink struct {
	node   topology.NodeID
	dataIn *sim.Pipe[noc.DataFlit]
	// cal is the node's due calendar, in which dataIn arms sinkBit beside
	// each flit it carries; the sink reads dataIn only on the cycles it is set.
	cal sim.Calendar
	// expect is the reassembly schedule keyed by ejection cycle. The
	// router's ejection table grants departures in [now+1, now+Horizon] and
	// the ejection link adds its latency, so the keys stay inside
	// [now, now+Horizon+LocalLatency].
	expect cycleRing[flitRef]
	// state is the reassembly progress of every packet that may still see a
	// flit: one map for the whole network (packet ids are unique across it,
	// and a packet has one destination), which the network makes and clears.
	// With retry disabled a packet's entry is deleted once all of its flits
	// are counted, so the map is bounded by the packets in flight; under retry
	// the entries stay, because telling a straggler of an old attempt from a
	// fresh one needs them.
	state map[noc.PacketID]sinkPkt
	hooks *noc.Hooks
	probe *metrics.Probe
	// prof is the self-profiling registry cached off the probe at attach
	// time; nil when profiling is disabled.
	prof *profile.Registry
	// wf is the latency-stage ledger cached off the probe at attach time;
	// nil when latency provenance is disabled.
	wf *waterfall.Ledger
	// e2eCheck arms the end-to-end payload checksum: a reassembled packet
	// any of whose flits arrived corrupted is rejected as lost (retried
	// under RetryLimit) instead of delivered.
	e2eCheck bool
	// notifyLoss, when set, reports each detected loss of a transmission
	// attempt to the notification plane (which relays it to the source NI
	// after the configured control-plane latency).
	notifyLoss func(p *noc.Packet, attempt int, now sim.Cycle)
	// escapes counts flits that arrived with damage no hop CRC caught.
	escapes int64
}

// sinkPkt is one packet's reassembly state: the newest transmission attempt
// seen, its progress, and whether the packet's fate is already resolved.
type sinkPkt struct {
	attempt int32
	got     int32
	lost    bool // current attempt had a detected hole
	done    bool // delivered; every later signal for the packet is stale
	// corrupt records that a flit of the current attempt arrived with
	// payload damage no hop CRC caught; the end-to-end check turns it
	// into a rejection at completion time.
	corrupt bool
}

// init builds the sink in place: its reassembly schedule, on the arena's
// memory, reaches span cycles ahead, and its packets' progress is kept in
// state.
func (s *Sink) init(a *arena, node topology.NodeID, span sim.Cycle, state map[noc.PacketID]sinkPkt, hooks *noc.Hooks) {
	*s = Sink{node: node, state: state, hooks: hooks}
	s.expect.init(carve(&a.refs, int(span)+1))
}

// reset empties the reassembly schedule, its window back at cycle 0; the
// packets' progress is the network's to forget.
func (s *Sink) reset() {
	s.expect.reset()
	s.escapes = 0
}

// Expect records, at cycle now, that the flit identified by (pkt, seq,
// attempt) will arrive on the ejection link at cycle at.
func (s *Sink) Expect(now, at sim.Cycle, pkt *noc.Packet, seq, attempt int32) {
	s.expect.advance(now)
	if !s.expect.put(at, flitRef{pkt: pkt, seq: seq, attempt: attempt}) {
		panic("core: two flits scheduled to eject in the same cycle")
	}
}

// stateFor returns a packet's reassembly state, fresh at the given attempt
// when the sink holds none; the caller stores what it changes.
func (s *Sink) stateFor(id noc.PacketID, attempt int32) sinkPkt {
	st, ok := s.state[id]
	if !ok {
		st.attempt = attempt
	}
	return st
}

// Tick receives ejected flits, matches them to the reassembly schedule, and
// reports completed packets. A reassembly slot that stays empty at its
// scheduled cycle means a flit was destroyed by a fault upstream; the packet's
// current attempt is reported lost, once, and stragglers of lost or superseded
// attempts are ignored.
func (s *Sink) Tick(now sim.Cycle) {
	cell := s.cal.Cell(now)
	due := *cell & sinkBit
	if due == 0 && s.expect.len() == 0 {
		s.prof.ComponentTick(profile.CompSink, int(s.node), false)
		return
	}
	work := 0
	if due != 0 {
		*cell &^= sinkBit
		flits := s.dataIn.Take(now)
		for i := range flits {
			s.eject(now, &flits[i].Item)
		}
		work += len(flits)
	}
	if e, ok := s.expect.take(now); ok {
		work++
		attempt := e.attempt
		st := s.stateFor(e.pkt.ID, attempt)
		// A stale entry — the packet's fate no longer depends on this
		// attempt — is dropped without a loss report.
		if !(st.done || attempt < st.attempt || (attempt == st.attempt && st.lost)) {
			if attempt > st.attempt {
				st.attempt, st.got, st.corrupt = attempt, 0, false
			}
			st.lost = true
			s.state[e.pkt.ID] = st
			s.probe.Nack(int(s.node))
			s.hooks.Lost(e.pkt, now)
			if s.notifyLoss != nil {
				s.notifyLoss(e.pkt, int(attempt), now)
			}
		}
	}
	s.prof.ComponentTick(profile.CompSink, int(s.node), work > 0)
}

// eject checks one arriving flit against the reassembly schedule and counts
// it toward its packet.
func (s *Sink) eject(now sim.Cycle, f *noc.DataFlit) {
	e, ok := s.expect.take(now)
	if !ok {
		panic(fmt.Sprintf("core: %s ejected at cycle %d with no reassembly schedule entry", *f, now))
	}
	if e.pkt.ID != f.Packet.ID || e.seq != f.Seq || e.attempt != f.Attempt {
		panic(fmt.Sprintf("core: reassembly mismatch at cycle %d: scheduled pkt=%d seq=%d attempt=%d, got %s attempt=%d", now, e.pkt.ID, e.seq, e.attempt, *f, f.Attempt))
	}
	s.hooks.Ejected(now)
	if s.probe != nil {
		s.probe.Eject(now, int(s.node), uint64(f.Packet.ID), int(f.Seq))
	}
	if s.wf != nil && f.Seq == 0 && f.Packet.Sampled {
		s.wf.Eject(uint64(f.Packet.ID), uint8(f.Attempt), now)
	}
	id := f.Packet.ID
	st := s.stateFor(id, f.Attempt)
	if st.done || f.Attempt < st.attempt {
		return // straggler of a resolved packet or superseded attempt
	}
	if f.Attempt > st.attempt {
		st.attempt, st.got, st.lost, st.corrupt = f.Attempt, 0, false, false
	}
	if st.lost {
		return
	}
	if f.Corrupted {
		// Damage that escaped every hop CRC has reached the
		// destination — the silent-corruption event. With the
		// end-to-end check off this packet is delivered as-is.
		st.corrupt = true
		s.escapes++
	}
	st.got++
	complete := st.got == f.Packet.Len
	if complete {
		// The payload checksum rejects a reassembled packet that carries
		// damage; the established loss path takes over.
		st.lost = st.corrupt && s.e2eCheck
		st.done = !st.lost
	}
	if complete && s.notifyLoss == nil {
		// Every flit is counted and, with retry disabled, this attempt is
		// the only one: nothing can follow, so the entry goes.
		delete(s.state, id)
	} else {
		s.state[id] = st
	}
	switch {
	case st.lost:
		s.probe.Nack(int(s.node))
		s.hooks.Lost(f.Packet, now)
		if s.notifyLoss != nil {
			s.notifyLoss(f.Packet, int(f.Attempt), now)
		}
	case st.done:
		s.hooks.Delivered(f.Packet, now)
	}
}

// dormant reports whether the sink has nothing to do: no flit is scheduled to
// eject and none is on the ejection link. Only the router's Expect and its
// ejected data end that, and both show here, so the sink keeps no flag.
func (s *Sink) dormant() bool { return s.expect.len() == 0 && s.dataIn.Empty() }

// pendingWork reports flits expected but not yet ejected.
func (s *Sink) pendingWork() int { return s.expect.len() }
