package core

import "frfc/internal/sim"

// eagerLedger is a shadow bookkeeper for the Figure 10 ablation: it replays
// every buffer residency against the alternative policy that binds a specific
// buffer at reservation time instead of just before arrival, and counts the
// buffer-to-buffer transfers that policy is forced into when no single buffer
// is free for a flit's whole residency. It never influences the network —
// deferred allocation remains the executed policy — so the comparison is
// like-for-like on an identical schedule.
type eagerLedger struct {
	slots [][]interval // per virtual buffer: reserved residencies, sorted by from
	open  map[sim.Cycle]openEntry

	assignments int64
	transfers   int64
}

// ledgerInf stands in for an unknown departure time of a parked flit.
const ledgerInf sim.Cycle = 1 << 60

type interval struct {
	from, to sim.Cycle // to exclusive
}

type openEntry struct {
	slot int
}

func newEagerLedger(buffers int) *eagerLedger {
	return &eagerLedger{
		slots: make([][]interval, buffers),
		open:  make(map[sim.Cycle]openEntry),
	}
}

// reset forgets every replayed residency.
func (l *eagerLedger) reset() {
	if l == nil {
		return
	}
	for i := range l.slots {
		l.slots[i] = l.slots[i][:0]
	}
	clear(l.open)
	l.assignments, l.transfers = 0, 0
}

// Transfers reports the number of buffer-to-buffer moves eager allocation
// would have required, and the number of residencies replayed.
func (l *eagerLedger) Transfers() (transfers, assignments int64) {
	if l == nil {
		return 0, 0
	}
	return l.transfers, l.assignments
}

// onReserve replays an in-advance reservation: residency [ta, td).
func (l *eagerLedger) onReserve(ta, td sim.Cycle) {
	if l == nil {
		return
	}
	l.assignments++
	l.place(ta, td)
}

// onParkedArrival replays a flit arriving without a schedule: its residency
// starts at ta with an unknown end.
func (l *eagerLedger) onParkedArrival(ta sim.Cycle) {
	if l == nil {
		return
	}
	l.assignments++
	slot, runEnd := l.bestSlot(ta)
	if slot == -1 {
		panic("core: eager ledger overcommitted on parked arrival")
	}
	_ = runEnd
	l.insert(slot, interval{from: ta, to: ledgerInf})
	l.open[ta] = openEntry{slot: slot}
}

// onScheduleParked replays the late reservation of a parked flit: its open
// residency now ends at td. If the chosen buffer has a conflicting later
// reservation, the flit must be transferred.
func (l *eagerLedger) onScheduleParked(now, ta, td sim.Cycle) {
	if l == nil {
		return
	}
	e, ok := l.open[ta]
	if !ok {
		panic("core: eager ledger has no open residency to close")
	}
	delete(l.open, ta)
	ivs := l.slots[e.slot]
	at := -1
	for i, iv := range ivs {
		if iv.from == ta && iv.to == ledgerInf {
			at = i
			break
		}
	}
	if at == -1 {
		panic("core: eager ledger lost an open interval")
	}
	// The open interval blocked everything after ta in this slot, so it
	// is the last interval; closing it cannot conflict, but a residency
	// extending past what was assumed is already covered. Simply close.
	l.slots[e.slot][at].to = td
}

// place assigns residency [from, to), splitting across buffers when no single
// buffer is free throughout and counting each split as one transfer.
func (l *eagerLedger) place(from, to sim.Cycle) {
	t := from
	for t < to {
		slot, runEnd := l.bestSlot(t)
		if slot == -1 {
			panic("core: eager ledger overcommitted — more residencies than buffers")
		}
		segEnd := to
		if runEnd < segEnd {
			segEnd = runEnd
		}
		l.insert(slot, interval{from: t, to: segEnd})
		if segEnd < to {
			l.transfers++
		}
		t = segEnd
	}
}

// bestSlot returns the buffer free at cycle t whose free run from t extends
// furthest, and the end of that run. slot is -1 if every buffer is busy at t.
func (l *eagerLedger) bestSlot(t sim.Cycle) (slot int, runEnd sim.Cycle) {
	slot, runEnd = -1, 0
	for i, ivs := range l.slots {
		end, free := freeRun(ivs, t)
		if free && end > runEnd {
			slot, runEnd = i, end
		}
	}
	return slot, runEnd
}

// freeRun reports whether cycle t is free in the interval set and, if so, the
// first busy cycle after t (ledgerInf when unbounded).
func freeRun(ivs []interval, t sim.Cycle) (end sim.Cycle, free bool) {
	end = ledgerInf
	for _, iv := range ivs {
		if t >= iv.from && t < iv.to {
			return 0, false
		}
		if iv.from > t && iv.from < end {
			end = iv.from
		}
	}
	return end, true
}

// insert adds an interval to a slot, keeping the set sorted, and prunes
// intervals that ended long ago to bound memory over long runs.
func (l *eagerLedger) insert(slot int, iv interval) {
	ivs := append(l.slots[slot], iv)
	for i := len(ivs) - 1; i > 0 && ivs[i].from < ivs[i-1].from; i-- {
		ivs[i], ivs[i-1] = ivs[i-1], ivs[i]
	}
	// Prune: everything that ends before the newest start can no longer
	// conflict with future placements, which always begin at or after the
	// current scheduling cycle.
	cutoff := iv.from - 4096
	n := 0
	for _, v := range ivs {
		if v.to > cutoff {
			ivs[n] = v
			n++
		}
	}
	l.slots[slot] = ivs[:n]
}
