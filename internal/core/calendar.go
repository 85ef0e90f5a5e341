package core

import (
	"frfc/internal/sim"
	"frfc/internal/topology"
)

// A node's router, interface and sink share one due calendar (sim.Calendar):
// the word for cycle t has a bit for everything any of them must act on at t —
// a wire into the router or its interface that delivers, an input's pool flit
// that departs, a reservation or condemned arrival that falls due, the
// ejection wire that delivers — and each reads the word for its cycle and acts
// on its set bits alone.
//
// A router has no credit wire into its Local port — the ejection channel is
// uncredited, and the injection channel's credits go to the interface — so
// those two slots name the interface's two credit wires instead (niBits). The
// sink's ejection wire has the bit past the inputs' (sinkBit).

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

	// sinkBit is the sink's ejection wire, the first bit past the inputs'.
	sinkBit = 1 << (expireShift + numPorts)
)

// wireBit is the bit of the wire of kind k into port p.
func wireBit(k wireKind, p topology.Port) uint32 { return 1 << (uint(k)*numPorts + uint(p)) }

// calendarReach is how far ahead anything is armed: a departure or a
// reservation up to Horizon cycles, a send one wire latency, and an arrival
// condemned when its control stream is destroyed up to both (the control flit
// has left its upstream router by the time it is destroyed here, and the data
// flit it leads departs from there within the horizon).
func (c Config) calendarReach() sim.Cycle {
	return c.Horizon + max(c.DataLinkLatency, c.CtrlLinkLatency, c.CreditLatency, c.LocalLatency)
}

// eachDue calls fn with every bit of the node's calendar and each cycle
// something it stands for falls due at, or once with sim.Never when nothing
// does: each wire into the router, its interface or its sink at each cycle it
// delivers at (sim.Pipe.Arrivals), each input's departure bit at each
// scheduled pool flit's departure and its expiry bit at each pending
// reservation and condemned arrival. These are the cycles the bits are armed
// at, no more and no fewer.
func (r *Router) eachDue(ni *NI, s *Sink, fn func(bit uint32, at sim.Cycle)) {
	for p := topology.Port(0); p < topology.NumPorts; p++ {
		if w := r.inputs[p].dataIn; w != nil {
			w.Arrivals(wireBit(dataWire, p), fn)
		}
		if w := r.ctrlIn[p].in; w != nil {
			w.Arrivals(wireBit(ctrlWire, p), fn)
		}
		if w := r.dataCreditIn[p]; w != nil {
			w.Arrivals(wireBit(resvCreditWire, p), fn)
		}
		if w := r.ctrlOut[p].creditIn; w != nil {
			w.Arrivals(wireBit(ctrlCreditWire, p), fn)
		}
	}
	ni.resvCreditIn.Arrivals(niResv, fn)
	ni.ctrlCreditIn.Arrivals(niCtrl, fn)
	s.dataIn.Arrivals(sinkBit, fn)
	for p := range r.inputs {
		in := &r.inputs[p]
		fn(in.departBit|in.expireBit, sim.Never)
		for i := in.occ.next(0); i >= 0; i = in.occ.next(i + 1) {
			if at := in.pool[i].departAt; at != sim.Never {
				fn(in.departBit, at)
			}
		}
		in.expected.each(func(ta sim.Cycle, _ reservation) { fn(in.expireBit, ta) })
		for ta := range in.condemned {
			fn(in.expireBit, ta)
		}
	}
}
