package core

import (
	"frfc/internal/noc"
	"frfc/internal/sim"
	"frfc/internal/topology"
)

// The unit tests build components on their own, outside any network. Each
// constructor here is the component's init over the zero arena, whose carve
// makes every array at exactly the size asked, then its reset — the path New
// takes (lay out, then Reset), minus the shared backing.

func newOutResTable(horizon sim.Cycle, buffers, ctrlVCs int, infinite bool) *outResTable {
	t := new(outResTable)
	t.init(&arena{}, horizon, buffers, ctrlVCs, 0, infinite)
	t.reset()
	return t
}

func newInputPort(buffers int, horizon sim.Cycle, ledger *eagerLedger, faultTolerant bool) *inputPort {
	p := new(inputPort)
	cal := make(sim.Calendar, sim.CalendarCells(horizon+1))
	p.init(&arena{}, topology.East, &cal, buffers, horizon, ledger, faultTolerant)
	p.reset()
	return p
}

func newCycleRing[T any](span sim.Cycle) cycleRing[T] {
	var r cycleRing[T]
	r.init(make([]ringCell[T], span))
	return r
}

func newNI(node topology.NodeID, cfg *Config, rng *sim.RNG, hooks *noc.Hooks) *NI {
	n := new(NI)
	n.init(&arena{}, node, cfg, hooks)
	n.rng, n.progress = *rng, new(int64)
	n.cal = make(sim.Calendar, sim.CalendarCells(cfg.calendarReach())) // its router's, which is absent
	n.reset()
	return n
}

// newSink's ejection wire is one cycle long and wakes the sink, as the
// router's does.
func newSink(node topology.NodeID, span sim.Cycle, hooks *noc.Hooks) *Sink {
	s := new(Sink)
	s.init(&arena{}, node, span, make(map[noc.PacketID]sinkPkt), hooks)
	s.cal = make(sim.Calendar, sim.CalendarCells(span))
	s.dataIn = sim.NewPipe[noc.DataFlit](1, 1).Wakes(&s.cal, sinkBit)
	return s
}

// arriveFn and departures are the callback forms the input port's two entry
// points had before the router looped over arrive, departing and release
// itself; the port tests still read best with them.
func (p *inputPort) arriveFn(now sim.Cycle, f noc.DataFlit, bypass func(noc.DataFlit, topology.Port)) bool {
	how, out := p.arrive(now, &f)
	if how == bypassed {
		bypass(f, out)
	}
	return how != refused
}

func (p *inputPort) departures(now sim.Cycle, fn func(noc.DataFlit, topology.Port)) {
	for slot := p.departing(now, 0); slot >= 0; slot = p.departing(now, slot+1) {
		fn(p.release(slot))
	}
}

// busyAt reports whether the channel is reserved at cycle c.
func (t *outResTable) busyAt(c sim.Cycle) bool {
	k := t.idx(c)
	return t.busy[k>>6]>>(k&63)&1 != 0
}

// armed counts the calendar's words with a bit set.
func armed(c sim.Calendar) int {
	n := 0
	for _, w := range c {
		if w != 0 {
			n++
		}
	}
	return n
}

// inFlight counts the wires into the router that carry anything.
func (r *Router) inFlight() int {
	total := 0
	for p := range r.inputs {
		total += carries(r.inputs[p].dataIn) + carries(r.ctrlIn[p].in) + carries(r.dataCreditIn[p]) + carries(r.ctrlOut[p].creditIn)
	}
	return total
}

// inFlight counts the credit wires into the interface that carry anything.
func (n *NI) inFlight() int { return carries(n.resvCreditIn) + carries(n.ctrlCreditIn) }

// carries is 1 for a wire that carries anything, 0 for an empty or absent one.
func carries[T any](w *sim.Pipe[T]) int {
	if w == nil || w.Empty() {
		return 0
	}
	return 1
}
