package core

import (
	"math/bits"

	"frfc/internal/sim"
	"frfc/internal/topology"
)

// calendar is a node's due calendar: the schedule the paper's router keeps in
// its input reservation table, turned into one word per cycle. The word for
// cycle t has a bit for everything the node's router and interface must act on
// at t, and a tick reads the word for its cycle and acts on its set bits
// alone: a wire is read when something on it falls due, a pool is searched for
// a departure when one is scheduled, a reservation is expired on its own cycle.
//
// The words form a ring indexed by the cycle's low bits, a power of two long
// and longer than anything is ever armed ahead (calendarCells); the router
// clears the word for its cycle at the end of its tick, so the ring always
// holds the cycles from now on. A bit may fire early but never late: a wire
// whose head is not yet due when its bit fires, after a replay or past the
// calendar's reach, is armed again at its head's delivery cycle (rearm), so a
// bit is a prompt to look, and what is found decides.
//
// The router and the interface of a node share one calendar. A router has no
// credit wire into its Local port — the ejection channel is uncredited, and
// the injection channel's credits go to the interface — so those two slots
// name the interface's two credit wires instead (niBits).
type calendar []uint32

// wireKind names one of the four wires into a router port.
type wireKind uint

const (
	dataWire       wireKind = iota // data link into the port's input
	ctrlWire                       // control link into the port's input
	resvCreditWire                 // reservation credits into the port's output
	ctrlCreditWire                 // control credits into the port's output
	numWireKinds
)

const (
	numPorts = uint(topology.NumPorts)
	// portMask selects one bit a port from a word shifted to a group's start.
	portMask = 1<<numPorts - 1
	// departShift and expireShift start the groups of input bits: a pool flit
	// of the input departs, a reservation or condemned arrival of it falls
	// due.
	departShift = uint(numWireKinds) * numPorts
	expireShift = departShift + numPorts

	// niResv and niCtrl are the interface's credit wires, in the Local slots
	// no router wire uses; niBits both.
	niResv = 1 << (uint(resvCreditWire)*numPorts + uint(topology.Local))
	niCtrl = 1 << (uint(ctrlCreditWire)*numPorts + uint(topology.Local))
	niBits = niResv | niCtrl
)

// wireBit is the bit of the wire of kind k into port p.
func wireBit(k wireKind, p topology.Port) uint32 { return 1 << (uint(k)*numPorts + uint(p)) }

// calendarCells is the length of a calendar that must reach reach cycles ahead:
// the next power of two above it.
func calendarCells(reach sim.Cycle) int { return 1 << bits.Len(uint(reach)) }

// calendarReach is how far ahead anything is armed: a departure or a
// reservation up to Horizon cycles, a send one wire latency, and an arrival
// condemned when its control stream is destroyed up to both (the control flit
// has left its upstream router by the time it is destroyed here, and the data
// flit it leads departs from there within the horizon).
func (c Config) calendarReach() sim.Cycle {
	return c.Horizon + max(c.DataLinkLatency, c.CtrlLinkLatency, c.CreditLatency, c.LocalLatency)
}

// cell returns the word for cycle t.
func (c calendar) cell(t sim.Cycle) *uint32 { return &c[int(t)&(len(c)-1)] }

// arm sets bits in the word for cycle t, which must lie within the calendar's
// reach of the current cycle.
func (c calendar) arm(t sim.Cycle, bits uint32) { *c.cell(t) |= bits }

// rearm arms bits for a wire whose head falls due at cycle t, read at cycle
// now; a head beyond the calendar's reach is armed at its last cycle, to be
// armed again from there.
func (c calendar) rearm(now, t sim.Cycle, bits uint32) {
	if last := now + sim.Cycle(len(c)) - 1; t > last {
		t = last
	}
	c.arm(t, bits)
}

// eachWire calls fn with the bit, and the head's delivery cycle, of every wire
// into the router and its interface; carries is false for an empty wire.
func (r *Router) eachWire(ni *NI, fn func(bit uint32, at sim.Cycle, carries bool)) {
	for p := topology.Port(0); p < topology.NumPorts; p++ {
		if w := r.inputs[p].dataIn; w != nil {
			at, ok := w.HeadAt()
			fn(wireBit(dataWire, p), at, ok)
		}
		if w := r.ctrlIn[p].in; w != nil {
			at, ok := w.HeadAt()
			fn(wireBit(ctrlWire, p), at, ok)
		}
		if w := r.dataCreditIn[p]; w != nil {
			at, ok := w.HeadAt()
			fn(wireBit(resvCreditWire, p), at, ok)
		}
		if w := r.ctrlOut[p].creditIn; w != nil {
			at, ok := w.HeadAt()
			fn(wireBit(ctrlCreditWire, p), at, ok)
		}
	}
	at, ok := ni.resvCreditIn.HeadAt()
	fn(niResv, at, ok)
	at, ok = ni.ctrlCreditIn.HeadAt()
	fn(niCtrl, at, ok)
}

// eachDue calls fn with the cycle, and the input bit, of everything the
// router's inputs hold that falls due: every scheduled pool flit's departure,
// every pending reservation and every condemned arrival.
func (r *Router) eachDue(fn func(at sim.Cycle, bit uint32)) {
	for p := range r.inputs {
		in := &r.inputs[p]
		for i := in.occ.next(0); i >= 0; i = in.occ.next(i + 1) {
			if at := in.pool[i].departAt; at != sim.Never {
				fn(at, in.departBit)
			}
		}
		in.expected.each(func(ta sim.Cycle, _ reservation) { fn(ta, in.expireBit) })
		for ta := range in.condemned {
			fn(ta, in.expireBit)
		}
	}
}
