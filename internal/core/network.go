package core

import (
	"fmt"
	"sort"
	"strings"

	"frfc/internal/metrics"
	"frfc/internal/noc"
	"frfc/internal/routing"
	"frfc/internal/sim"
	"frfc/internal/topology"
)

// notif is one end-to-end notification in flight from a destination back to a
// source interface: a delivery acknowledgment or a loss report for a specific
// transmission attempt. The notification plane is the modeled control channel
// of the recovery layer — reliable, with a fixed NackLatency delay.
type notif struct {
	ack     bool
	pkt     *noc.Packet
	attempt int
}

// linkPipes names the four wires of one directed inter-router link — node a's
// output port p into node b — so the fault engine can sever and restore them
// as a unit and the invariant checker can audit their conservation laws.
type linkPipes struct {
	a, b       topology.NodeID
	p          topology.Port
	data       *sim.Pipe[noc.DataFlit]
	resvCredit *sim.Pipe[noc.ReservationCredit]
	ctrl       *sim.Pipe[noc.ControlFlit]
	ctrlCredit *sim.Pipe[noc.VCCredit]
}

// Network is a complete mesh of flit-reservation routers with per-node
// network interfaces. It implements noc.Network.
type Network struct {
	mesh topology.Mesh
	cfg  Config
	// hooks is what the components report through, one value for the
	// network's life: own — the hooks the network counts on the way, built
	// once — laid over inner, the current run's.
	hooks      *noc.Hooks
	own, inner noc.Hooks

	// leadArrays is the free list the interfaces' control flits take their
	// lead arrays from. New stocks it, from one array, with as many as there
	// are control buffers — a flit holds one from the interface that sends it
	// to the router that retires it, and credits keep the flits on any control
	// link and in the queues behind it to that link's buffers — so a fault-free
	// run never makes one. Within a run it is fed only where a control flit is
	// retired at its destination (Router.consume) — a flit destroyed on the
	// way, discarded or severed, leaves its array to the garbage collector —
	// and Reset, which retires every flit the network still holds, returns
	// theirs.
	leadArrays noc.LeadArrays

	// The components, each kind in one array; everything they point at was cut
	// from the arena New made (arena.go).
	routers []Router
	nis     []NI
	sinks   []Sink
	// reassembly is the sinks' one map of packets mid-reassembly (Sink.state).
	reassembly map[noc.PacketID]sinkPkt

	// probe is the attached observability sink; nil when disabled.
	probe *metrics.Probe

	// linkRNG drives control-link fault injection across all links; it is
	// split off the root seed so fault patterns are reproducible.
	linkRNG *sim.RNG

	// The ledger of the events the network intercepts (countingHooks); what
	// else Counts reports its components and links tally.
	offered      int64
	delivered    int64
	lostDetected int64 // loss events at destinations (per attempt under retry)
	lostResolved int64 // packets whose fate "lost" is final (retry disabled)
	abandoned    int64 // packets that exhausted their retry budget
	afterRetry   int64 // packets delivered on an attempt > 0
	dropped      int64 // data flits destroyed on links
	unreachable  int64 // packets failed fast: no surviving route to their destination

	// links is the directed inter-router link registry built by wire, the
	// handle the hard-fault engine severs through (linksBetween) and the
	// invariant checker audits.
	links []linkPipes

	// Hard-fault scenario state, live when cfg.Faults is non-empty.
	// nextFault indexes the first unapplied event; table is the shared
	// fault-aware routing table rebuilt on every topology change; linkDown
	// and deadNode record the current outage set.
	nextFault int
	table     *routing.Table
	linkDown  map[[2]topology.NodeID]bool
	deadNode  []bool

	// notifs holds in-flight end-to-end notifications keyed by the cycle
	// they reach the source interface.
	notifs map[sim.Cycle][]notif
	// resolved records each packet's first resolution (delivery or
	// abandonment) under retry. A spurious timeout — shorter than the
	// notification round trip — can race an abandonment against an
	// in-flight delivery; whichever resolves first wins and the loser is
	// suppressed, keeping offered == delivered + abandoned exact.
	resolved map[noc.PacketID]bool

	// Watchdog state: progress counts every flit movement network-wide;
	// the watchdog trips when it stands still too long with packets in
	// flight and no recovery action pending.
	progress       int64
	lastProgress   int64
	lastProgressAt sim.Cycle
	wedgeFired     bool
	now            sim.Cycle
}

var _ noc.Network = (*Network)(nil)

// New assembles a flit-reservation network over the given mesh. The seed
// drives every arbitration and injection decision; hooks may be nil. It
// allocates and wires the components and leaves every initial value to Reset.
func New(mesh topology.Mesh, cfg Config, seed uint64, hooks *noc.Hooks) *Network {
	cfg = cfg.WithDefaults()
	cfg.validate()
	topoFaults := hasTopologyFaults(cfg.Faults)
	if len(cfg.Faults) > 0 {
		if err := ValidateFaults(mesh, cfg.Faults, cfg.RetryLimit > 0); err != nil {
			panic("core: " + err.Error())
		}
		// Hard faults change the topology mid-run; only the lookup table
		// can route around them, so any fixed algorithm is replaced.
		// Corruption-only scenarios leave the topology (and therefore the
		// routing choice) alone.
		if topoFaults {
			if _, ok := cfg.Routing.(*routing.Table); !ok {
				cfg.Routing = routing.NewTable(mesh)
			}
		}
	}
	n := &Network{mesh: mesh, cfg: cfg, hooks: new(noc.Hooks), linkRNG: new(sim.RNG)}
	if t, ok := cfg.Routing.(*routing.Table); ok {
		n.table = t
	}
	if topoFaults {
		n.linkDown = make(map[[2]topology.NodeID]bool)
		n.deadNode = make([]bool, mesh.N())
	}
	if cfg.RetryLimit > 0 {
		n.notifs = make(map[sim.Cycle][]notif)
		n.resolved = make(map[noc.PacketID]bool)
	}
	n.own = n.countingHooks()

	a := newArena(mesh, &n.cfg)
	n.routers = make([]Router, mesh.N())
	n.nis = make([]NI, mesh.N())
	n.sinks = make([]Sink, mesh.N())
	// Two packets mid-reassembly a node is more than a run below saturation
	// shows; past that the map grows as any map does.
	n.reassembly = make(map[noc.PacketID]sinkPkt, 2*mesh.N())
	noteLoss := n.noteLoss
	for id := range n.routers {
		node := topology.NodeID(id)
		r, ni, sink := &n.routers[id], &n.nis[id], &n.sinks[id]
		r.init(a, node, mesh, &n.cfg)
		r.hooks, r.progress, r.leadArrays, r.sink = n.hooks, &n.progress, &n.leadArrays, sink

		ni.init(a, node, &n.cfg, n.hooks)
		ni.progress, ni.leads = &n.progress, &n.leadArrays
		sink.init(a, node, cfg.Horizon+cfg.LocalLatency, n.reassembly, n.hooks)
		sink.e2eCheck = cfg.E2ECheck
		if cfg.RetryLimit > 0 {
			sink.notifyLoss = noteLoss
		}
		if topoFaults {
			ni.unreachable = func(dst topology.NodeID) bool {
				return !n.pairConnected(node, dst)
			}
		}
	}
	n.wire(a)
	n.leadArrays = make(noc.LeadArrays, 0, len(a.entries)/cfg.LeadsPerCtrl)
	for len(a.entries) > 0 {
		n.leadArrays = append(n.leadArrays, carve(&a.entries, cfg.LeadsPerCtrl)[:0])
	}
	if a.left() != 0 {
		panic("core: the arena was sized for a different network than was built")
	}
	n.Reset(seed, hooks)
	return n
}

// Reset implements noc.Network. The lead-array free list and every
// component's grown capacity survive; nothing else of an earlier run does.
func (n *Network) Reset(seed uint64, hooks *noc.Hooks) {
	// The caller's hooks pass straight through, except the ones the network
	// counts on the way (own), which find the caller's in n.inner.
	n.inner = noc.Hooks{}
	if hooks != nil {
		n.inner = *hooks
	}
	h := n.inner
	h.PacketDelivered, h.PacketLost, h.PacketAbandoned = n.own.PacketDelivered, n.own.PacketLost, n.own.PacketAbandoned
	h.PacketUnreachable, h.FlitDropped = n.own.PacketUnreachable, n.own.FlitDropped
	*n.hooks = h
	n.AttachProbe(nil)

	n.offered, n.delivered, n.lostDetected, n.lostResolved = 0, 0, 0, 0
	n.abandoned, n.afterRetry, n.dropped, n.unreachable = 0, 0, 0, 0
	clear(n.notifs)
	clear(n.resolved)
	clear(n.reassembly)
	n.progress, n.lastProgress, n.lastProgressAt, n.wedgeFired, n.now = 0, 0, 0, false, 0

	// A scenario that got as far as changing the topology left outages and
	// routes computed around them; the healthy mesh is where a run starts.
	if n.nextFault > 0 && n.linkDown != nil {
		clear(n.linkDown)
		clear(n.deadNode)
		n.table.Reset(n.mesh)
	}
	n.nextFault = 0

	// Construction order is the seed: every split below draws from root, so
	// the link stream, then the routers' in id order, then the interfaces' each
	// get the stream their position gives them. Moving the first line (or
	// either loop) reseeds every stream after it and with them every FR cell of
	// the paper's evaluation — a mechanism-free change that TestFRResultsPinned
	// is what notices (EXPERIMENTS.md, "construction order is the seed").
	var root sim.RNG
	root.Seed(seed)
	root.SplitInto(n.linkRNG)
	for id := range n.routers {
		root.SplitInto(&n.routers[id].rng)
		n.routers[id].reset()
	}
	// Every control flit still on a wire is retired here, as the ones queued
	// in routers are by their reset.
	retire := func(cf noc.ControlFlit) { n.leadArrays.Put(cf.Leads) }
	for id := range n.nis {
		ni := &n.nis[id]
		root.SplitInto(&ni.rng)
		ni.reset()
		n.sinks[id].reset()
		ni.dataOut.Reset()
		ni.resvCreditIn.Reset()
		ni.ctrlOut.Each(retire)
		ni.ctrlOut.Reset()
		ni.ctrlCreditIn.Reset()
		n.sinks[id].dataIn.Reset()
	}
	for i := range n.links {
		l := &n.links[i]
		l.data.Reset()
		l.resvCredit.Reset()
		l.ctrl.Each(retire)
		l.ctrl.Reset()
		l.ctrlCredit.Reset()
		if n.berArmed() {
			// The configured rate, which a scenario's "corrupt" events
			// retune mid-run.
			l.data.SetBitErrorRate(n.cfg.BER)
			l.ctrl.SetBitErrorRate(n.cfg.BER)
		}
	}
}

// countingHooks builds, once, the hooks the network intercepts to keep its
// own ledger: the five events its caller reads too, which under retry must
// first be told from a duplicate. Each then passes the event on to the current
// run's hook of the same name, if it set one.
func (n *Network) countingHooks() noc.Hooks {
	return noc.Hooks{
		PacketDelivered: func(p *noc.Packet, now sim.Cycle) {
			if n.resolved != nil {
				if n.resolved[p.ID] {
					return // late delivery of a packet already written off
				}
				n.resolved[p.ID] = true
				at := now + n.cfg.NackLatency
				n.notifs[at] = append(n.notifs[at], notif{ack: true, pkt: p})
			}
			n.delivered++
			if p.Attempts > 0 {
				n.afterRetry++
			}
			n.inner.Delivered(p, now)
		},
		PacketLost: func(p *noc.Packet, now sim.Cycle) {
			n.lostDetected++
			if n.cfg.RetryLimit == 0 {
				n.lostResolved++
			}
			n.inner.Lost(p, now)
		},
		PacketAbandoned: func(p *noc.Packet, now sim.Cycle) {
			if n.resolved[p.ID] {
				return // the delivery beat the retry timer; its ACK is in flight
			}
			n.resolved[p.ID] = true
			n.abandoned++
			n.inner.Abandoned(p, now)
		},
		FlitDropped: func(p *noc.Packet, now sim.Cycle) {
			n.dropped++
			n.inner.Dropped(p, now)
		},
		PacketUnreachable: func(p *noc.Packet, now sim.Cycle) {
			if n.resolved != nil {
				if n.resolved[p.ID] {
					return // a delivery or abandonment already settled this packet
				}
				n.resolved[p.ID] = true
			}
			n.unreachable++
			n.probe.Unreachable(int(p.Src))
			n.inner.Unreachable(p, now)
		},
	}
}

// AttachProbe points the whole network — routers, interfaces, sinks — at an
// observability probe; nil detaches. Implements metrics.Attachable.
func (n *Network) AttachProbe(p *metrics.Probe) {
	n.probe = p
	p.Init(n.mesh.Radix())
	for id := range n.routers {
		n.routers[id].attachProbe(p)
		ni, s := &n.nis[id], &n.sinks[id]
		ni.probe, ni.prof, ni.wf = p, p.Profile(), p.Waterfall()
		s.probe, s.prof, s.wf = p, p.Profile(), p.Waterfall()
	}
}

// sampleOccupancy records one sample of every input pool's occupancy into
// the given probe.
func (n *Network) sampleOccupancy(probe *metrics.Probe) {
	for id := range n.routers {
		r := &n.routers[id]
		for p := range r.inputs {
			if r.ctrlIn[p].exists {
				probe.Occupancy(id, p, r.inputs[p].occupied, n.cfg.DataBuffers)
			}
		}
	}
}

// noteLoss is the sinks' entry into the notification plane: a detected loss
// of one transmission attempt travels back to the packet's source after
// NackLatency cycles.
func (n *Network) noteLoss(p *noc.Packet, attempt int, now sim.Cycle) {
	at := now + n.cfg.NackLatency
	n.notifs[at] = append(n.notifs[at], notif{pkt: p, attempt: attempt})
}

// resvCreditWidth bounds the reservation credits one input port can emit in
// a cycle. A credit goes out for a lead of the control flit at the front of
// one of the input's control VCs, when the lead is scheduled or — under hard
// faults — discarded; arbitration visits each VC's front flit once a cycle,
// and the flit behind it only the next, so the bound is the input's VCs times
// the leads a flit carries.
func (c Config) resvCreditWidth() int { return c.CtrlVCs * c.LeadsPerCtrl }

// newCtrlLink builds one inter-router control link: a plain pipe, or — under
// CtrlFaultRate — a fault-injecting pipe whose corrupted flits are delayed by
// the link-level retransmission round trip. Under the bit-error model the
// pipe additionally delivers flits with their Corrupted flag set at rate BER.
// The pipe counts both (Counts reads them).
func (n *Network) newCtrlLink(a *arena) *sim.Pipe[noc.ControlFlit] {
	p := a.ctrl.New(n.cfg.CtrlLinkLatency, n.cfg.CtrlFlitsPerCycle)
	if n.cfg.CtrlFaultRate > 0 {
		p.WithFaults(n.cfg.CtrlFaultRate, n.linkRNG)
	}
	if n.berArmed() {
		p.WithBitErrors(0, n.linkRNG, corruptCtrl) // Reset sets the rate
	}
	return p
}

// newDataLink builds one inter-router data link, armed with the bit-error
// model when the configuration or a scenario "corrupt" event needs it.
// (DataFaultRate loss is injected at the sending router, not in the pipe.)
func (n *Network) newDataLink(a *arena) *sim.Pipe[noc.DataFlit] {
	p := a.data.New(n.cfg.DataLinkLatency, 1)
	if n.berArmed() {
		p.WithBitErrors(0, n.linkRNG, corruptData) // Reset sets the rate
	}
	return p
}

// berArmed reports whether inter-router links need the bit-error machinery:
// either a static BER is configured or the fault scenario retunes one with a
// "corrupt" event. Arming with rate zero draws no randomness, so a corrupt
// event's pre-onset behavior is bit-identical to an unarmed run.
func (n *Network) berArmed() bool {
	return n.cfg.BER > 0 || hasCorruptFaults(n.cfg.Faults)
}

// corruptData and corruptCtrl are the links' bit-error transforms: the flit
// is delivered, its payload is wrong, and only the flag — invisible to the
// routers until a CRC check looks — records the damage.
func corruptData(f noc.DataFlit) noc.DataFlit {
	f.Corrupted = true
	return f
}

func corruptCtrl(f noc.ControlFlit) noc.ControlFlit {
	f.Corrupted = true
	return f
}

// wire connects routers, NIs and sinks: data links (one flit/cycle,
// DataLinkLatency), control links (CtrlFlitsPerCycle flits/cycle,
// CtrlLinkLatency), reservation-credit and control-credit wires
// (CreditLatency), every pipe and its ring cut from the arena. Each wire wakes
// its receiver (sim.Pipe.Wakes): its bit on the calendar of the node it
// reaches, which a node's interface and sink share with its router.
func (n *Network) wire(a *arena) {
	cfg := n.cfg
	n.links = a.links
	for id := range n.routers {
		r := &n.routers[id]
		for p := topology.Port(0); p < topology.Local; p++ {
			nb, ok := n.mesh.Neighbor(topology.NodeID(id), p)
			if !ok {
				continue
			}
			far := &n.routers[nb]
			op := p.Opposite()

			data := n.newDataLink(a).Wakes(&far.cal, wireBit(dataWire, op))
			r.dataOut[p] = data
			far.inputs[op].dataIn = data

			resvCredit := a.resvCredit.New(cfg.CreditLatency, cfg.resvCreditWidth()).Wakes(&r.cal, wireBit(resvCreditWire, p))
			r.dataCreditIn[p] = resvCredit
			far.inputs[op].creditOut = resvCredit

			ctrl := n.newCtrlLink(a).Wakes(&far.cal, wireBit(ctrlWire, op))
			r.ctrlOut[p].out = ctrl
			far.ctrlIn[op].in = ctrl

			ctrlCredit := a.ctrlCredit.New(cfg.CreditLatency, cfg.CtrlVCs).Wakes(&r.cal, wireBit(ctrlCreditWire, p))
			r.ctrlOut[p].creditIn = ctrlCredit
			far.ctrlIn[op].creditOut = ctrlCredit

			n.links = append(n.links, linkPipes{
				a: topology.NodeID(id), b: nb, p: p,
				data: data, resvCredit: resvCredit, ctrl: ctrl, ctrlCredit: ctrlCredit,
			})
		}

		ni, sink := &n.nis[id], &n.sinks[id]
		ni.cal, sink.cal = r.cal, r.cal

		// Injection: NI data -> router Local input; reservation
		// credits flow back from the router's input scheduler.
		ni.dataOut = a.data.New(cfg.LocalLatency, 1).Wakes(&r.cal, wireBit(dataWire, topology.Local))
		r.inputs[topology.Local].dataIn = ni.dataOut

		ni.resvCreditIn = a.resvCredit.New(cfg.CreditLatency, cfg.resvCreditWidth()).Wakes(&ni.cal, niResv)
		r.inputs[topology.Local].creditOut = ni.resvCreditIn

		ni.ctrlOut = a.ctrl.New(cfg.CtrlLinkLatency, cfg.CtrlFlitsPerCycle).Wakes(&r.cal, wireBit(ctrlWire, topology.Local))
		r.ctrlIn[topology.Local].in = ni.ctrlOut

		ni.ctrlCreditIn = a.ctrlCredit.New(cfg.CreditLatency, cfg.CtrlVCs).Wakes(&ni.cal, niCtrl)
		r.ctrlIn[topology.Local].creditOut = ni.ctrlCreditIn

		// Ejection: router Local output -> sink, schedule set by
		// destination control flits.
		sink.dataIn = a.data.New(cfg.LocalLatency, 1).Wakes(&sink.cal, sinkBit)
		r.dataOut[topology.Local] = sink.dataIn
	}
}

// linksBetween returns the two directed links of the undirected link a—b, the
// lower-numbered node's first. Outages are rare, so the registry is searched,
// not indexed.
func (n *Network) linksBetween(a, b topology.NodeID) (pair [2]*linkPipes) {
	k := 0
	for i := range n.links {
		if l := &n.links[i]; l.a == a && l.b == b || l.a == b && l.b == a {
			pair[k] = l
			k++
		}
	}
	return pair
}

// Offer implements noc.Network. A packet whose destination has no surviving
// route is failed fast — counted offered, reported unreachable, never queued.
func (n *Network) Offer(p *noc.Packet) {
	n.offered++
	if n.table != nil && !n.pairConnected(topology.NodeID(p.Src), topology.NodeID(p.Dst)) {
		n.hooks.Unreachable(p, n.now)
		return
	}
	n.nis[p.Src].offer(p)
}

// isDead reports whether a hard fault has killed the given router.
func (n *Network) isDead(id topology.NodeID) bool {
	return n.deadNode != nil && n.deadNode[id]
}

// pairConnected reports whether src can currently reach dst over the
// surviving topology. Without a routing table (no fault scenario) every pair
// is connected.
func (n *Network) pairConnected(src, dst topology.NodeID) bool {
	if n.isDead(src) || n.isDead(dst) {
		return false
	}
	if n.table == nil {
		return true
	}
	return n.table.Reachable(src, dst)
}

// Tick implements noc.Network.
func (n *Network) Tick(now sim.Cycle) {
	n.now = now
	if n.nextFault < len(n.cfg.Faults) {
		n.applyFaults(now)
	}
	if n.notifs != nil {
		if due, ok := n.notifs[now]; ok {
			delete(n.notifs, now)
			for _, nt := range due {
				if n.isDead(topology.NodeID(nt.pkt.Src)) {
					continue
				}
				ni := &n.nis[nt.pkt.Src]
				if nt.ack {
					ni.ack(nt.pkt.ID)
				} else {
					ni.loss(nt.pkt.ID, nt.attempt, now)
				}
			}
		}
	}
	for id := range n.nis {
		if n.isDead(topology.NodeID(id)) {
			continue
		}
		n.nis[id].Tick(now)
	}
	for id := range n.routers {
		if n.isDead(topology.NodeID(id)) {
			continue
		}
		n.routers[id].Tick(now)
	}
	for id := range n.sinks {
		if n.isDead(topology.NodeID(id)) {
			continue
		}
		n.sinks[id].Tick(now)
	}
	if n.probe.SampleDue(now) {
		n.sampleOccupancy(n.probe)
	}
	if n.cfg.Check {
		n.check(now)
	}
	n.watch(now)
}

// SourceQueueLen implements noc.Network.
func (n *Network) SourceQueueLen() int {
	total := 0
	for id := range n.nis {
		total += n.nis[id].queue.Len()
	}
	return total
}

// InFlightPackets implements noc.Network. A packet is resolved when it is
// delivered, abandoned after exhausting its retries, reported unreachable
// after a hard fault disconnected its pair, or — with retry disabled —
// detected lost; its fate is then known.
func (n *Network) InFlightPackets() int {
	return int(n.offered - n.delivered - n.lostResolved - n.abandoned - n.unreachable)
}

// Counts implements noc.Network: the network's own ledger, plus what its
// components tally where the events happen — re-injections at the interfaces,
// hop-CRC catches, phantom reservations, reclaimed slots and the eager-transfer
// shadow ledger at the routers, escapes at the sinks — and what the links'
// pipes count of corruption.
func (n *Network) Counts() noc.Counts {
	c := noc.Counts{
		Offered:             n.offered,
		Delivered:           n.delivered,
		Abandoned:           n.abandoned,
		LostDetected:        n.lostDetected,
		Unreachable:         n.unreachable,
		DeliveredAfterRetry: n.afterRetry,
		DroppedFlits:        n.dropped,
	}
	for i := range n.links {
		l := &n.links[i]
		c.CtrlCorrupted += l.ctrl.Retransmits()
		c.CorruptedFlits += l.data.Corrupted() + l.ctrl.Corrupted()
	}
	for id := range n.routers {
		r := &n.routers[id]
		c.Retried += n.nis[id].retried
		c.CrcDetected += r.crcDetected
		c.CorruptEscapes += n.sinks[id].escapes
		for p := range r.inputs {
			in := &r.inputs[p]
			c.PhantomReservations += in.phantoms
			c.ReclaimedSlots += in.reclaimed
			t, res := in.ledger.Transfers()
			c.EagerTransfers += t
			c.EagerResidencies += res
		}
	}
	return c
}

// pendingRecovery counts recovery actions that will fire on their own at a
// known future cycle: in-flight end-to-end notifications, armed retry timers
// and backoff-delayed re-offers, and reassembly-schedule entries whose hole
// detection has not yet run. While any exist the network may be legitimately
// idle, so the watchdog holds off.
func (n *Network) pendingRecovery() int {
	total := 0
	for _, nts := range n.notifs {
		total += len(nts)
	}
	for id := range n.nis {
		if n.isDead(topology.NodeID(id)) {
			continue
		}
		total += n.nis[id].pendingRecovery() + n.sinks[id].expect.len()
	}
	return total
}

// watch is the no-progress watchdog: with packets in flight, no recovery
// action pending, and no flit movement for WatchdogCycles cycles, the network
// is wedged — it captures a diagnostic snapshot and fires the Wedged hook,
// once per stall.
func (n *Network) watch(now sim.Cycle) {
	if n.cfg.WatchdogCycles <= 0 {
		return
	}
	if n.progress != n.lastProgress {
		n.lastProgress = n.progress
		n.lastProgressAt = now
		n.wedgeFired = false
		return
	}
	if n.InFlightPackets() == 0 || n.pendingRecovery() > 0 {
		n.lastProgressAt = now
		return
	}
	if now-n.lastProgressAt >= n.cfg.WatchdogCycles && !n.wedgeFired {
		n.wedgeFired = true
		n.probe.Wedge(now)
		n.hooks.Wedge(now, n.snapshot(now))
	}
}

// snapshot renders the wedge diagnostic: which routers hold stalled work,
// per-router counter lines from the metrics registry (reservation outcomes,
// stall causes, live occupancy), and the full control/buffer/reservation
// state dump as an appendix. With no probe attached, a throwaway registry is
// filled from the network's live state so the counter lines still carry the
// occupancy picture.
func (n *Network) snapshot(now sim.Cycle) string {
	var stalled, idle []int
	for id := range n.routers {
		if n.routers[id].pendingWork() > 0 {
			stalled = append(stalled, id)
		}
		if n.nis[id].pendingWork() > 0 {
			idle = append(idle, id)
		}
	}
	sort.Ints(stalled)
	sort.Ints(idle)
	var b strings.Builder
	fmt.Fprintf(&b, "wedged at cycle %d: no flit moved for %d cycles, %d packets in flight\n",
		now, n.cfg.WatchdogCycles, n.InFlightPackets())
	fmt.Fprintf(&b, "stalled routers: %v\nstalled interfaces: %v\n", stalled, idle)
	reg := n.snapshotRegistry()
	b.WriteString(reg.WedgeSummary(stalled))
	b.WriteString(n.DumpState())
	return b.String()
}

// snapshotRegistry is the registry the wedge snapshot renders from: the
// attached probe's, topped up with a fresh occupancy sample so the report
// reflects the stalled state rather than the last epoch, or a temporary one
// when no probe is attached.
func (n *Network) snapshotRegistry() *metrics.Registry {
	probe := n.probe
	if probe == nil || probe.Reg == nil {
		probe = metrics.NewProbe(metrics.Options{Metrics: true})
		probe.Init(n.mesh.Radix())
	}
	n.sampleOccupancy(probe)
	return probe.Reg
}

// ParkedFlits reports how many data flits, network-wide, ever arrived before
// their control flit finished scheduling and waited on a schedule list —
// the data-overtakes-control situation of Section 3.
func (n *Network) ParkedFlits() int64 {
	var total int64
	for id := range n.routers {
		for p := range n.routers[id].inputs {
			total += n.routers[id].inputs[p].parkedTotal
		}
	}
	return total
}

// PoolUsage implements noc.Network.
func (n *Network) PoolUsage(id topology.NodeID, port topology.Port) (used, capacity int) {
	in := &n.routers[id].inputs[port]
	return in.occupied, len(in.pool)
}

// DumpState renders the routers' internal control and data state for
// deadlock diagnosis: per control VC, the queue depth and head flit with its
// scheduling progress; per input pool, occupancy and schedule-list size; per
// output table, the steady free count and per-VC outstanding/claims.
func (n *Network) DumpState() string {
	var b strings.Builder
	for id := range n.routers {
		r := &n.routers[id]
		if r.pendingWork() == 0 {
			continue
		}
		fmt.Fprintf(&b, "router %d\n", id)
		for p := range r.ctrlIn {
			ci := &r.ctrlIn[p]
			if !ci.exists {
				continue
			}
			for v := range ci.vcs {
				vc := &ci.vcs[v]
				if vc.n == 0 {
					continue
				}
				qc := vc.front()
				fmt.Fprintf(&b, "  ctrl in %s vc %d: qlen=%d head=%v routed=%v route=%v alloc=%v admitted=%v leads=%+v\n",
					topology.Port(p), v, vc.n, qc.flit, vc.routed, topology.Port(vc.route), vc.allocated, qc.admitted, vc.leadsAt(int(vc.head), r.cfg.LeadsPerCtrl))
			}
		}
		for p := range r.inputs {
			in := &r.inputs[p]
			if in.pending() == 0 {
				continue
			}
			fmt.Fprintf(&b, "  input %s: occupied=%d parked=%d expected=%d\n",
				topology.Port(p), in.occupied, len(in.parked), in.expected.len())
		}
		for p := range r.outTables {
			tb := &r.outTables[p]
			if tb.size == 0 || tb.infinite {
				continue
			}
			fmt.Fprintf(&b, "  out %s: steady=%d outstanding=%v claims=%v\n",
				topology.Port(p), tb.steady, tb.outstanding, tb.claims)
		}
	}
	for id := range n.nis {
		if ni := &n.nis[id]; ni.pendingWork() > 0 || len(ni.awaiting) > 0 {
			fmt.Fprintf(&b, "NI %d: queue=%d active=%d sendAt=%d ctrlCredits=%v awaitingAck=%d pendingRetry=%d\n",
				id, ni.queue.Len(), ni.activeCount(), ni.sendAt.len(), ni.ctrlCredits, len(ni.awaiting), ni.pendingRecovery())
		}
	}
	return b.String()
}
