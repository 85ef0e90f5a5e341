package core

import (
	"fmt"

	"frfc/internal/noc"
	"frfc/internal/sim"
	"frfc/internal/topology"
)

// check is the runtime invariant checker (Config.Check): at the end of every
// cycle it audits the conservation laws the protocol's correctness rests on.
// A violation is a simulator bug — or fault-handling that leaked state — and
// panics with a diagnostic dump.
func (n *Network) check(now sim.Cycle) {
	for i := range n.links {
		n.checkLink(now, &n.links[i])
	}
	for id := range n.routers {
		if n.isDead(topology.NodeID(id)) {
			continue
		}
		n.checkLocal(now, topology.NodeID(id))
		n.checkRouter(now, topology.NodeID(id))
		n.checkSleep(now, topology.NodeID(id))
	}
}

// checkSleep audits the calendar that lets a node's router, interface and
// sink act only on what falls due, against the state it stands for. At the
// end of a cycle every live node has ticked, so the word for now is clear,
// and every bit is armed at exactly the cycles something it stands for falls
// due (eachDue, through the calendar's Audit): a wire's at each cycle it
// delivers at, an input's departure bit at each of its pool flits' scheduled
// departures, its expiry bit at each reservation and condemned arrival it
// holds — so a router whose wires and inputs hold nothing, as a dormant one's
// mostly do, has nothing armed. Then a control channel's bit in the router's
// occ vector is set iff its queue holds a flit, and the fresh vector is zero,
// since every channel filled this cycle was read (and cleared) by candidates.
//
// A component marked dormant must hold no work of its own the calendar does
// not name: a router no control flit queued and, under reclamation, no flit
// parked; an interface nothing at all (idle).
func (n *Network) checkSleep(now sim.Cycle, id topology.NodeID) {
	r, ni := &n.routers[id], &n.nis[id]
	if err := r.cal.Audit(now, func(due func(uint32, sim.Cycle)) { r.eachDue(ni, &n.sinks[id], due) }); err != nil {
		n.fail(now, "node %d: %v", id, err)
	}

	queued := 0
	for ch := range r.chans {
		vc := &r.chans[ch]
		queued += int(vc.n)
		if has := r.occ.next(ch) == ch; has != (vc.n > 0) {
			n.fail(now, "node %d port %s vc %d: occupancy bit %v with %d control flits queued",
				id, topology.Port(ch/n.cfg.CtrlVCs), ch%n.cfg.CtrlVCs, has, vc.n)
		}
	}
	if ch := r.occ.next(len(r.chans)); ch >= 0 {
		n.fail(now, "node %d: occupancy bit %d set past the router's %d control channels", id, ch, len(r.chans))
	}
	if ch := r.fresh.next(0); ch >= 0 {
		n.fail(now, "node %d: channel %d still marked fresh between ticks", id, ch)
	}
	if r.queued != queued {
		n.fail(now, "node %d: router counts %d control flits queued, its VCs hold %d", id, r.queued, queued)
	}
	if r.dormant && (r.queued > 0 || n.cfg.ReclaimCycles > 0 && r.parkedInputs() != 0) {
		n.fail(now, "node %d: router dormant with %d control flits queued and parked flits on inputs %05b", id, r.queued, r.parkedInputs())
	}
	if ni.dormant && !ni.idle() {
		n.fail(now, "NI %d: interface dormant with %d items of pending work", id, ni.pendingWork())
	}
}

func (n *Network) fail(now sim.Cycle, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	panic(fmt.Sprintf("core: invariant violated at cycle %d: %s\n%s", now, msg, n.DumpState()))
}

// checkLink audits one directed inter-router link. A severed link must be
// empty; a live one must conserve control credits per VC: sender credit
// counter + credits on the wire + flits queued downstream + flits on the wire
// always equals the downstream VC's buffer depth.
func (n *Network) checkLink(now sim.Cycle, l *linkPipes) {
	if l.data.Severed() {
		empty := 0
		l.data.Each(func(noc.DataFlit) { empty++ })
		l.resvCredit.Each(func(noc.ReservationCredit) { empty++ })
		l.ctrl.Each(func(noc.ControlFlit) { empty++ })
		l.ctrlCredit.Each(func(noc.VCCredit) { empty++ })
		if empty != 0 {
			n.fail(now, "severed link %d->%d carries %d in-flight items", l.a, l.b, empty)
		}
		return
	}
	co := &n.routers[l.a].ctrlOut[l.p]
	ci := &n.routers[l.b].ctrlIn[l.p.Opposite()]
	for v := 0; v < n.cfg.CtrlVCs; v++ {
		total := co.credits[v] + int(ci.vcs[v].n)
		l.ctrlCredit.Each(func(c noc.VCCredit) {
			if int(c.VC) == v {
				total++
			}
		})
		l.ctrl.Each(func(f noc.ControlFlit) {
			if int(f.VC) == v {
				total++
			}
		})
		if total != n.cfg.CtrlBufPerVC {
			n.fail(now, "link %d->%d vc %d: control credits not conserved: %d accounted, want %d",
				l.a, l.b, v, total, n.cfg.CtrlBufPerVC)
		}
	}
}

// checkLocal audits the injection control link between a node's interface and
// its router, which conserves credits the same way as an inter-router link.
func (n *Network) checkLocal(now sim.Cycle, id topology.NodeID) {
	ni := &n.nis[id]
	ci := &n.routers[id].ctrlIn[topology.Local]
	for v := 0; v < n.cfg.CtrlVCs; v++ {
		total := ni.ctrlCredits[v] + int(ci.vcs[v].n)
		ni.ctrlCreditIn.Each(func(c noc.VCCredit) {
			if int(c.VC) == v {
				total++
			}
		})
		ni.ctrlOut.Each(func(f noc.ControlFlit) {
			if int(f.VC) == v {
				total++
			}
		})
		if total != n.cfg.CtrlBufPerVC {
			n.fail(now, "node %d injection vc %d: control credits not conserved: %d accounted, want %d",
				id, v, total, n.cfg.CtrlBufPerVC)
		}
	}
	n.checkTable(now, fmt.Sprintf("NI %d injection table", id), &ni.injTable)
}

// checkRouter audits one router's control-VC ownership, reservation tables
// and buffer pools.
func (n *Network) checkRouter(now sim.Cycle, id topology.NodeID) {
	r := &n.routers[id]
	// A stream holds its downstream control VC from head to tail (endStream
	// lets it go): every allocated channel is routed and not draining, and
	// an output control VC is owned iff exactly one allocated channel holds
	// it.
	held := make([]int, int(topology.NumPorts)*n.cfg.CtrlVCs)
	for ch := range r.chans {
		vc := &r.chans[ch]
		if !vc.allocated {
			continue
		}
		if !vc.routed || vc.drain {
			n.fail(now, "node %d ch %d: allocated output VC %d while routed=%v drain=%v", id, ch, vc.outVC, vc.routed, vc.drain)
		}
		held[int(vc.route)*n.cfg.CtrlVCs+int(vc.outVC)]++
	}
	for p := range r.ctrlOut {
		for v, owned := range r.ctrlOut[p].owned {
			if k := held[p*n.cfg.CtrlVCs+v]; owned != (k == 1) || k > 1 {
				n.fail(now, "node %d out %s vc %d: owned=%v, held by %d allocated channels", id, topology.Port(p), v, owned, k)
			}
		}
	}
	for p := range r.inputs {
		if !r.ctrlIn[p].exists {
			continue
		}
		n.checkTable(now, fmt.Sprintf("node %d out %s", id, topology.Port(p)), &r.outTables[p])
		in := &r.inputs[p]
		occ := 0
		for i := range in.pool {
			held := in.pool[i].flit.Packet != nil
			if held {
				occ++
			}
			if held != (in.occ.next(i) == i) {
				n.fail(now, "node %d input %s: slot %d holds a flit: %v, its occupancy bit says otherwise",
					id, topology.Port(p), i, held)
			}
		}
		if occ != in.occupied {
			n.fail(now, "node %d input %s: occupied counter %d but %d slots in use",
				id, topology.Port(p), in.occupied, occ)
		}
		for _, pk := range in.parked {
			ta := pk.arrival
			s := &in.pool[pk.slot]
			if s.flit.Packet == nil || s.departAt != sim.Never {
				n.fail(now, "node %d input %s: schedule-list entry for arrival %d points at a non-parked slot",
					id, topology.Port(p), ta)
			}
			// The leak invariant reclamation exists to enforce: no parked
			// flit outlives the reclamation timeout. Phantom-orphaned
			// flits must be collected the very cycle they go stale, so any
			// older survivor is a leaked buffer slot.
			if n.cfg.ReclaimCycles > 0 && now-ta > n.cfg.ReclaimCycles {
				n.fail(now, "node %d input %s: parked flit from cycle %d outlived the %d-cycle reclamation timeout — reservation slot leaked",
					id, topology.Port(p), ta, n.cfg.ReclaimCycles)
			}
		}
		// Expected arrivals are installed at most one control-flit journey
		// ahead of their data and expire the cycle they fall due, so every
		// surviving entry — phantom ones included — must lie in the future.
		in.expected.each(func(ta sim.Cycle, _ reservation) {
			if ta < now {
				n.fail(now, "node %d input %s: expected-arrival entry for past cycle %d survived its expiry",
					id, topology.Port(p), ta)
			}
		})
	}
}

// checkTable audits one output reservation table's bookkeeping ranges.
func (n *Network) checkTable(now sim.Cycle, what string, t *outResTable) {
	if t.infinite {
		return
	}
	if t.steady < 0 || t.steady > t.cap {
		n.fail(now, "%s: steady free count %d outside [0,%d]", what, t.steady, t.cap)
	}
	for c := t.base; c < t.end(); c++ {
		if f := t.freeAt(c); f > t.cap {
			n.fail(now, "%s: free-buffer cell for cycle %d holds %d, outside [0,%d]", what, c, f, t.cap)
		}
	}
	for v := range t.outstanding {
		if t.outstanding[v] < 0 {
			n.fail(now, "%s: vc %d outstanding residency count %d is negative", what, v, t.outstanding[v])
		}
		if t.claims[v] < 0 {
			n.fail(now, "%s: vc %d claim count %d is negative", what, v, t.claims[v])
		}
	}
}
