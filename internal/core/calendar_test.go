package core

import (
	"fmt"
	"strings"
	"testing"

	"frfc/internal/noc"
	"frfc/internal/sim"
	"frfc/internal/topology"
)

// TestDueCalendarMatchesPolling holds the calendar-driven network to a
// reference that polls every wire, pool and reservation table every cycle: a
// twin network whose every live node has, before each tick, every bit of its
// word for the cycle set, so each router reads each of its wires, searches
// each pool for a departure and expires each input's cell, each interface
// reads both its credit wires and each sink its ejection wire, as they did
// before the calendar. (On a cycle with a fault event the engine rebuilds the
// twin's calendar from the wires themselves before anything ticks, which polls
// them too.) After every cycle the two must hold the same wires, queues,
// pools, tables, random streams and ledger, and by the end they must have
// reported the same events on the same cycles: every item is taken on the same
// cycle and in the same order.
//
// The script leaves the calendar no easy cycle: control links slow enough,
// and faulty enough, that go-back-N replays hold flits back past the
// calendar's reach, armed only when Replay delivers them; bit errors on every
// link, caught or not by a 4-bit hop CRC; a link severed mid-flight and
// restored; and a Reset halfway that runs it all again from a new seed.
func TestDueCalendarMatchesPolling(t *testing.T) {
	cfg := fastControl()
	cfg.Horizon, cfg.CtrlLinkLatency, cfg.CtrlFaultRate = 16, 6, 0.3
	cfg.BER, cfg.CrcBits, cfg.E2ECheck, cfg.RetryLimit = 2e-3, 4, true, 6
	var err error
	if cfg.Faults, err = ParseScenario("down 4-5 @250; up 4-5 @380"); err != nil {
		t.Fatal(err)
	}
	mesh := topology.NewMesh(3)
	start := func(check bool) *scriptedRun {
		c := cfg
		c.Check = check
		r := &scriptedRun{}
		r.net = New(mesh, c, 7, r.hooks())
		return r
	}
	// The calendar-driven network runs under the checker, which audits its
	// bits against its wires, pools and tables every cycle.
	cal, ref := start(true), start(false)

	for phase, seed := range []uint64{7, 8} {
		for _, r := range []*scriptedRun{cal, ref} {
			if phase > 0 {
				r.net.Reset(seed, r.hooks())
			}
			r.src = &uniformSource{rng: sim.NewRNG(seed), mesh: mesh, rate: 0.06}
		}
		for now := sim.Cycle(0); now < 600; now++ {
			for id := range ref.net.routers {
				r := &ref.net.routers[id]
				*r.cal.Cell(now) |= r.polled()
			}
			for _, r := range []*scriptedRun{cal, ref} {
				r.src.offer(r.net, now)
				r.net.Tick(now)
			}
			if a, b := fingerprint(cal.net), fingerprint(ref.net); a != b {
				t.Fatalf("phase %d cycle %d: the calendar-driven network and the polling one differ:\n%s\n%s", phase, now, a, b)
			}
		}
	}
	if len(cal.events) != len(ref.events) {
		t.Fatalf("%d events against the polling network's %d", len(cal.events), len(ref.events))
	}
	for i := range cal.events {
		if cal.events[i] != ref.events[i] {
			t.Fatalf("event %d: %s, the polling network %s", i, cal.events[i], ref.events[i])
		}
	}
	c := cal.net.Counts()
	t.Logf("%d events; second run's counts %+v", len(cal.events), c)
	if c.CtrlCorrupted == 0 || c.CorruptedFlits == 0 || c.CrcDetected == 0 || c.Delivered == 0 {
		t.Fatalf("the script missed what it is for: counts %+v", c)
	}
}

// scriptedRun is one of the two networks TestDueCalendarMatchesPolling
// drives, its traffic source and what it has reported.
type scriptedRun struct {
	net    *Network
	src    *uniformSource
	events []string
}

// hooks logs what the run's network reports, with the cycle.
func (r *scriptedRun) hooks() *noc.Hooks {
	log := func(what string) func(*noc.Packet, sim.Cycle) {
		return func(p *noc.Packet, now sim.Cycle) {
			r.events = append(r.events, fmt.Sprintf("%s %d @%d", what, p.ID, now))
		}
	}
	return &noc.Hooks{PacketDelivered: log("delivered"), PacketLost: log("lost"),
		PacketAbandoned: log("abandoned"), FlitDropped: log("dropped"), PacketUnreachable: log("unreachable")}
}

// polled is every bit of the router's calendar word that names something its
// node has: each wire into it, its interface or its sink, and each input's
// departure and expiry.
func (r *Router) polled() uint32 {
	m := uint32(niBits | sinkBit)
	for p := topology.Port(0); p < topology.NumPorts; p++ {
		if !r.ctrlIn[p].exists {
			continue
		}
		m |= wireBit(dataWire, p) | wireBit(ctrlWire, p) | r.inputs[p].departBit | r.inputs[p].expireBit
		if p != topology.Local {
			m |= wireBit(resvCreditWire, p) | wireBit(ctrlCreditWire, p)
		}
	}
	return m
}

// fingerprint renders what a cycle leaves behind in a network: what every wire
// carries and when each of its slots falls due, every router's queues, pools,
// tables and random stream, every interface's and sink's schedule, and the
// ledger.
func fingerprint(n *Network) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%+v\n", n.Counts())
	for i := range n.links {
		l := &n.links[i]
		carried(&b, l.data)
		carried(&b, l.resvCredit)
		carried(&b, l.ctrl)
		carried(&b, l.ctrlCredit)
	}
	for id := range n.routers {
		r, ni, s := &n.routers[id], &n.nis[id], &n.sinks[id]
		fmt.Fprintf(&b, "\nnode %d: rng %v/%v queued %d", id, r.rng, ni.rng, r.queued)
		for p := range r.inputs {
			in := &r.inputs[p]
			fmt.Fprintf(&b, " in%d %d/%d/%d", p, in.occupied, in.expected.len(), len(in.parked))
			if t := &r.outTables[p]; t.size > 0 && !t.infinite {
				fmt.Fprintf(&b, " out%d %d", p, t.steady)
			}
		}
		fmt.Fprintf(&b, " ni %d/%d/%d/%v sink %d", ni.queue.Len(), ni.sendAt.len(), ni.activeCount(), ni.ctrlCredits, s.expect.len())
		carried(&b, ni.dataOut)
		carried(&b, ni.ctrlOut)
		carried(&b, ni.resvCreditIn)
		carried(&b, ni.ctrlCreditIn)
		carried(&b, s.dataIn)
	}
	return b.String()
}

// carried renders what wire w carries: how many items, and the cycles its
// slots fall due at.
func carried[T any](b *strings.Builder, w *sim.Pipe[T]) {
	n := 0
	w.Each(func(T) { n++ })
	fmt.Fprintf(b, " %d", n)
	w.Arrivals(0, func(_ uint32, at sim.Cycle) { fmt.Fprintf(b, "@%d", at) })
}

// TestRearmArmsEveryArrival: the rebuild after a batch of fault events
// (Network.resync, Router.rearm) arms each wire's bit at every cycle the wire
// delivers at, not only at its head's: a fault-free wire is read only on the
// cycles its sends armed, so an arrival left unarmed would never be taken.
// Control links four cycles long and two flits wide carry several arrival
// cycles at once; the network is rebuilt every seventh cycle and runs under
// the checker, whose audit holds every bit to exactly the cycles it falls due.
func TestRearmArmsEveryArrival(t *testing.T) {
	cfg := fastControl()
	cfg.CtrlLinkLatency, cfg.Check = 4, true
	mesh := topology.NewMesh(3)
	net := New(mesh, cfg, 1, nil)
	src := &uniformSource{rng: sim.NewRNG(1), mesh: mesh, rate: 0.25}
	several := 0
	for now := sim.Cycle(0); now < 400; now++ {
		src.offer(net, now)
		if now%7 == 0 {
			for id := range net.routers {
				for p := range net.routers[id].ctrlIn {
					if w := net.routers[id].ctrlIn[p].in; w != nil {
						arrivals := 0
						w.Arrivals(0, func(uint32, sim.Cycle) { arrivals++ })
						if arrivals > 1 {
							several++
						}
					}
				}
			}
			net.resync()
		}
		net.Tick(now)
	}
	if several == 0 {
		t.Fatal("no control wire carried more than one arrival cycle at a rebuild")
	}
}
