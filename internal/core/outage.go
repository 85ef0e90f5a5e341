package core

import (
	"fmt"
	"sort"

	"frfc/internal/noc"
	"frfc/internal/sim"
	"frfc/internal/topology"
)

// This file is the hard-fault engine: it applies the scheduled outage events
// of Config.Faults to the running network — severing and restoring wires,
// destroying in-flight state, and rebuilding the fault-aware routing table —
// all deterministically, so a scenario run is bit-identical regardless of how
// the harness schedules it.

// applyFaults applies every scenario event due at or before now, then — if
// any fired — recomputes routes and fails fast the queued packets the new
// topology cut off. It runs at the top of Tick, before any component moves.
func (n *Network) applyFaults(now sim.Cycle) {
	changed := false
	first := n.nextFault
	for n.nextFault < len(n.cfg.Faults) && n.cfg.Faults[n.nextFault].At <= now {
		e := n.cfg.Faults[n.nextFault]
		n.nextFault++
		switch e.Kind {
		case LinkDown:
			n.failLink(e.A, e.B)
			changed = true
		case LinkUp:
			n.repairLink(e.A, e.B)
			changed = true
		case RouterDown:
			n.killRouter(now, e.A)
			changed = true
		case LinkCorrupt:
			// A soft fault: the topology is untouched, only the link's
			// bit-error rate changes.
			n.corruptLink(e.A, e.B, e.Rate)
		default:
			panic(fmt.Sprintf("core: unknown fault kind %d", e.Kind))
		}
	}
	if changed {
		n.topoChanged(now)
	}
	if n.nextFault > first {
		n.resync()
	}
}

// resync squares the calendars with what the fault engine just did behind the
// components' backs: severed wires lost their contents with their bits still
// armed, and queues, tables and buffers were rewritten from outside. Every
// calendar is cleared and armed again from the state the events left (rearm),
// and every router and interface is woken to look at its state afresh. Events
// are rare, so rebuilding and waking the whole mesh costs nothing that
// matters.
func (n *Network) resync() {
	for id := range n.routers {
		n.routers[id].rearm(&n.nis[id], &n.sinks[id])
		n.routers[id].dormant = false
		n.nis[id].dormant = false
	}
}

// rearm rebuilds the node's calendar at the top of a cycle, before anything
// ticks: every bit at each cycle something it stands for falls due (eachDue),
// all of them within the calendar's reach. A replaying wire's slot is empty
// then — its receiver took the last one — and its Replay arms what it moves
// there.
func (r *Router) rearm(ni *NI, s *Sink) {
	clear(r.cal)
	r.eachDue(ni, s, func(bit uint32, at sim.Cycle) {
		if at != sim.Never {
			r.cal.Arm(at, bit)
		}
	})
}

// corruptLink retunes the undirected link a—b's bit-error rate: both
// directions' data and control wires start delivering corrupted flits at the
// given probability. The pipes were armed at wire time (berArmed), so the
// retune never perturbs RNG draw order.
func (n *Network) corruptLink(a, b topology.NodeID, rate float64) {
	for _, l := range n.linksBetween(a, b) {
		l.data.SetBitErrorRate(rate)
		l.ctrl.SetBitErrorRate(rate)
	}
}

// severDirected cuts one directed link's four wires, destroying everything in
// flight. Destroyed data flits are reported as dropped; control flits and
// credits vanish silently — the drain machinery downstream and the credit
// recomputation at repair time absorb the loss.
func (n *Network) severDirected(l *linkPipes) {
	l.data.Sever(func(f noc.DataFlit) { n.hooks.Dropped(f.Packet, n.now) })
	l.resvCredit.Sever(nil)
	l.ctrl.Sever(nil)
	l.ctrlCredit.Sever(nil)
}

// failLink takes the undirected link a—b out of service: both directions'
// wires are severed and every control stream routed into them is cut loose.
func (n *Network) failLink(a, b topology.NodeID) {
	n.linkDown[normLink(a, b)] = true
	for _, l := range n.linksBetween(a, b) {
		n.severDirected(l)
		n.routers[l.a].severOutput(l.p)
	}
}

// repairLink returns the undirected link a—b to service. Per direction x→y
// through x's port p:
//
//   - the four wires are restored, empty;
//   - x gets a fresh output reservation table for p — the old one's free
//     counts are garbage because the credits that would have maintained them
//     died on the severed credit wire;
//   - x's control-output credits are recomputed from y's actual control queue
//     occupancy (queued flits drain and return their credits over the
//     restored wire, re-establishing conservation);
//   - reservations x's inputs still hold toward p are purged — their
//     departures were committed on the dead table and would collide with the
//     fresh one's bookkeeping;
//   - y's input port behind the link is reset to empty, because the fresh
//     table at x believes every buffer there is free.
//
// y's control queues keep their flits: their streams route onward through
// live outputs and complete as ghosts of the destroyed data.
func (n *Network) repairLink(a, b topology.NodeID) {
	delete(n.linkDown, normLink(a, b))
	cfg := n.cfg
	for _, l := range n.linksBetween(a, b) {
		l.data.Restore()
		l.resvCredit.Restore()
		l.ctrl.Restore()
		l.ctrlCredit.Restore()

		x, y := &n.routers[l.a], &n.routers[l.b]
		q := l.p.Opposite()
		x.outTables[l.p].reset()
		co := &x.ctrlOut[l.p]
		for v := range co.credits {
			co.credits[v] = cfg.CtrlBufPerVC - int(y.ctrlIn[q].vcs[v].n)
			co.owned[v] = false
		}
		drop := func(f noc.DataFlit) { n.hooks.Dropped(f.Packet, n.now) }
		for p := range x.inputs {
			x.inputs[p].purgeOutput(l.p, drop)
		}
		y.inputs[q].flush(drop)
	}
}

// killRouter permanently removes a router: every incident link and the
// node's own injection/ejection wires are severed for good, and every packet
// its interface still owed an outcome is resolved as unreachable — in
// PacketID order, for determinism.
func (n *Network) killRouter(now sim.Cycle, v topology.NodeID) {
	n.deadNode[v] = true
	for p := topology.Port(0); p < topology.Local; p++ {
		nb, ok := n.mesh.Neighbor(v, p)
		if !ok {
			continue
		}
		for _, l := range n.linksBetween(v, nb) {
			if l.data.Severed() {
				continue // already down, or shared with another dead router
			}
			n.severDirected(l)
			n.routers[l.a].severOutput(l.p)
		}
	}

	drop := func(f noc.DataFlit) { n.hooks.Dropped(f.Packet, n.now) }
	ni := &n.nis[v]
	ni.dataOut.Sever(drop)
	ni.resvCreditIn.Sever(nil)
	ni.ctrlOut.Sever(nil)
	ni.ctrlCreditIn.Sever(nil)
	n.sinks[v].dataIn.Sever(drop)

	// The dead interface never ticks again, so its timers can never resolve
	// anything: settle every packet it was responsible for right now.
	pending := make([]*noc.Packet, 0, len(ni.awaiting))
	for _, st := range ni.awaiting {
		pending = append(pending, st.pkt)
	}
	sort.Slice(pending, func(i, j int) bool { return pending[i].ID < pending[j].ID })
	for _, p := range pending {
		n.hooks.Unreachable(p, now)
	}
	ni.awaiting = make(map[noc.PacketID]*retryState)
	ni.queue = noc.SourceQueue{}
	ni.timeouts = nil
	ni.retryAt = make(map[sim.Cycle][]*noc.Packet)
	ni.sendAt.clear()
	for i := range ni.active {
		ni.active[i] = niPacket{}
	}
	// Flits already scheduled into the dead sink will never eject; the
	// senders' retry machinery resolves them through the unreachable path.
	n.sinks[v].expect.clear()
}

// topoChanged recomputes routes over the surviving topology and fails fast
// every queued packet the change disconnected, interface by interface in id
// order.
func (n *Network) topoChanged(now sim.Cycle) {
	if n.table != nil {
		n.table.Rebuild(n.mesh,
			func(a, b topology.NodeID) bool { return !n.linkDown[normLink(a, b)] },
			func(v topology.NodeID) bool { return !n.deadNode[v] })
	}
	for id := range n.nis {
		if n.isDead(topology.NodeID(id)) {
			continue
		}
		n.nis[id].failUnreachable(now)
	}
}
