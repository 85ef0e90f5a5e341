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

// eachWire calls fn with the bit of every wire into the router, its interface
// and its sink, and a cycle the wire delivers at: once for each such cycle,
// earliest first (sim.Pipe.Arrivals), or once with carries false for an empty
// wire.
func (r *Router) eachWire(ni *NI, s *Sink, fn func(bit uint32, at sim.Cycle, carries bool)) {
	for p := topology.Port(0); p < topology.NumPorts; p++ {
		if w := r.inputs[p].dataIn; w != nil {
			arrivals(w, wireBit(dataWire, p), fn)
		}
		if w := r.ctrlIn[p].in; w != nil {
			arrivals(w, wireBit(ctrlWire, p), fn)
		}
		if w := r.dataCreditIn[p]; w != nil {
			arrivals(w, wireBit(resvCreditWire, p), fn)
		}
		if w := r.ctrlOut[p].creditIn; w != nil {
			arrivals(w, wireBit(ctrlCreditWire, p), fn)
		}
	}
	arrivals(ni.resvCreditIn, niResv, fn)
	arrivals(ni.ctrlCreditIn, niCtrl, fn)
	arrivals(s.dataIn, sinkBit, fn)
}

// arrivals calls fn for wire w of bit bit as eachWire does.
func arrivals[T any](w *sim.Pipe[T], bit uint32, fn func(bit uint32, at sim.Cycle, carries bool)) {
	if w.Empty() {
		fn(bit, 0, false)
		return
	}
	w.Arrivals(func(at sim.Cycle) { fn(bit, at, true) })
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
