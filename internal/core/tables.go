package core

import (
	"fmt"
	"math"

	"frfc/internal/sim"
)

// outResTable is the output reservation table of Figure 4: for every cycle in
// the window [base, base+size) it records whether the output channel is
// reserved (busy) and how many buffers will be free at the downstream input
// pool. The window slides forward with time, with circular reuse as cycles
// expire; steady holds the free-buffer count at and beyond the window's end,
// so newly revealed cells inherit the net effect of every reservation and
// credit seen so far.
//
// Reservations decrement the free count from the flit's downstream arrival
// (t_d + t_p) through the horizon; credits from the downstream node increment
// it from the announced departure cycle onward. A reservation whose arrival
// lands past the window's end is carried in the future list and applied as
// the window reveals those cycles.
type outResTable struct {
	size int // Horizon+1 cells: departures reservable in [now+1, now+Horizon]
	base sim.Cycle
	// baseIdx is the cell holding cycle base; cycle base+k lives k cells on,
	// wrapping at size, so a sweep from any cycle to the window's end is at
	// most two contiguous runs over the cells (see runs) and never divides.
	baseIdx int
	busy    []bool
	free    []int32
	cap     int // downstream pool capacity, for overflow checks
	steady  int
	// infinite marks the ejection channel, whose downstream (reassembly
	// buffers) never fills; only the busy bits are meaningful.
	infinite bool

	// outstanding[v] counts downstream buffer residencies attributed to
	// control VC v of this link: incremented per committed reservation,
	// decremented per returned credit. The reservation rule leaves one
	// buffer free for every *other* VC with no outstanding residency, so
	// a packet holding a control VC can always eventually land its next
	// flit downstream — without this, the shared pool and the wormhole
	// control channels form the deadlock cycle Section 5 of the paper
	// warns about (dependencies "in both directions between control
	// flits ... and data flits that share a single buffer pool").
	outstanding []int

	// claims[v] counts downstream buffers set aside for the
	// still-unscheduled leads of control VC v's mid-schedule control
	// flit. Under per-flit scheduling with d > 1, a control flit whose
	// early leads are committed lets their data flits race ahead and
	// park downstream; those flits can only be drained by this very
	// control flit, so it must be guaranteed to finish. A control flit
	// is therefore admitted — all of its leads claimed at once — before
	// its first commit, and every other VC's searches leave the claimed
	// buffers alone. Claims release one by one as the leads commit.
	claims []int

	// future holds at-infinity deltas already folded into steady whose
	// effect must be excluded from cells revealed before their cycle.
	future []futureDelta
}

type futureDelta struct {
	at    sim.Cycle
	delta int
}

// init lays the table out in place on the arena's memory, for reset to fill.
// tp is the propagation
// delay of the channel the table schedules: a commit lands on the future list
// only while its arrival td+tp lies past the window, which at most tp distinct
// departures can, so that is the list's room.
func (t *outResTable) init(a *arena, horizon sim.Cycle, buffers, ctrlVCs int, tp sim.Cycle, infinite bool) {
	if buffers > math.MaxInt32 {
		panic("core: downstream pool too large for the reservation table's free counts")
	}
	if infinite {
		tp = 0 // counts no buffers, so commits nothing to the future
	}
	size := int(horizon) + 1
	perVC := carve(&a.counts, 2*ctrlVCs)
	*t = outResTable{
		size:        size,
		busy:        carve(&a.flags, size),
		free:        carve(&a.free, size),
		cap:         buffers,
		infinite:    infinite,
		outstanding: perVC[:ctrlVCs:ctrlVCs],
		claims:      perVC[ctrlVCs:],
		future:      carve(&a.future, int(tp))[:0],
	}
}

// reset returns the table to its just-built state: the window at cycle 0, no
// channel cycle reserved, every downstream buffer free now and for good, and
// no residency, claim or future delta outstanding.
func (t *outResTable) reset() {
	t.base, t.baseIdx = 0, 0
	clear(t.busy)
	for i := range t.free {
		t.free[i] = int32(t.cap)
	}
	t.steady = t.cap
	clear(t.outstanding)
	clear(t.claims)
	t.future = t.future[:0]
}

// idx returns the cell holding cycle c, which must lie inside the window.
func (t *outResTable) idx(c sim.Cycle) int {
	if c < t.base || c >= t.end() {
		panic(fmt.Sprintf("core: cycle %d outside window [%d,%d)", c, t.base, t.end()))
	}
	i := t.baseIdx + int(c-t.base)
	if i >= t.size {
		i -= t.size
	}
	return i
}

// runs returns the cells holding cycles [from, end()) as two contiguous
// index ranges, [a0,a1) then [b0,b1), in cycle order; either may be empty.
// from must lie in [base, end()].
func (t *outResTable) runs(from sim.Cycle) (a0, a1, b0, b1 int) {
	i := t.baseIdx + int(from-t.base)
	if i < t.size {
		return i, t.size, 0, t.baseIdx
	}
	return i - t.size, t.baseIdx, 0, 0
}

// end returns one past the last cycle in the window.
func (t *outResTable) end() sim.Cycle { return t.base + sim.Cycle(t.size) }

// advance slides the window so it starts at now, recycling expired cells.
// Owners call it before each use rather than once a cycle: every revealed
// cell is computed from steady and the future list, which only commits and
// credits — made on a current window — change, so sliding over a gap of idle
// cycles at once leaves exactly what sliding through them one by one would.
func (t *outResTable) advance(now sim.Cycle) {
	if now == t.base {
		return
	}
	if now < t.base {
		panic("core: reservation table advanced backwards")
	}
	if now-t.base >= sim.Cycle(t.size) {
		// The whole window expired while its owner had no use for it;
		// reset every cell.
		t.base, t.baseIdx = now, 0
		for i := range t.busy {
			t.busy[i] = false
			t.free[i] = int32(t.revealValue(now + sim.Cycle(i)))
		}
		t.pruneFuture()
		return
	}
	for t.base < now {
		// The cell for cycle t.base expires and is recycled as the
		// cell for cycle t.base+size.
		t.busy[t.baseIdx] = false
		t.free[t.baseIdx] = int32(t.revealValue(t.end()))
		t.base++
		if t.baseIdx++; t.baseIdx == t.size {
			t.baseIdx = 0
		}
	}
	t.pruneFuture()
}

// revealValue computes the free count for a newly revealed cell at cycle c:
// steady, excluding future events that take effect only after c.
func (t *outResTable) revealValue(c sim.Cycle) int {
	v := t.steady
	for _, f := range t.future {
		if f.at > c {
			v -= f.delta
		}
	}
	return v
}

func (t *outResTable) pruneFuture() {
	n := 0
	for _, f := range t.future {
		// Keep events that can still affect cells revealed later;
		// the next cell to be revealed is at cycle end().
		if f.at > t.end() {
			t.future[n] = f
			n++
		}
	}
	t.future = t.future[:n]
}

// findDeparture returns the earliest departure cycle t_d in
// [max(ta, now+1), now+Horizon] at which the channel is unreserved and, for
// every cycle from t_d+tp through the horizon, at least one downstream buffer
// is free (the availability rule of Section 3). ok is false when no such
// cycle exists within the horizon — the control flit must stall and retry.
//
// t_d may equal ta: a flit whose departure is reserved for its own arrival
// cycle bypasses the router entirely, completing the hop in exactly the link
// propagation time — the zero-residency fast path that gives flit reservation
// its lower base latency (Section 3's bypass). A flit that has already
// arrived (ta < now) can depart no earlier than the next cycle.
//
// vc is the control VC (of this link) on whose behalf the reservation is
// made; the search demands `1 + reserve(vc)` free buffers rather than 1, so
// that every other currently-idle control VC keeps a buffer available (the
// deadlock-avoidance rule described on the outstanding field).
func (t *outResTable) findDeparture(now, ta, tp sim.Cycle, vc int) (td sim.Cycle, ok bool) {
	if t.base != now {
		panic("core: findDeparture called before advancing the table")
	}
	start := ta
	if start < now+1 {
		start = now + 1
	}
	if start >= t.end() {
		return 0, false
	}
	if !t.infinite {
		need := 1 + t.reserve(vc)
		if t.steady < need {
			return 0, false
		}
		// A departure at c needs `need` free buffers in every cell from
		// c+tp to the window's end, so the latest cell short of that rules
		// out every departure up to tp cycles before it. Find it sweeping
		// backwards from the end; cells before start+tp bind no candidate.
		if lo := start + tp; lo < t.end() {
			if short, found := t.lastShort(lo, int32(need)); found {
				if start = short + 1 - tp; start >= t.end() {
					return 0, false
				}
			}
		}
	}
	// The earliest unreserved channel cycle from start on.
	a0, a1, b0, b1 := t.runs(start)
	for i := a0; i < a1; i++ {
		if !t.busy[i] {
			return start + sim.Cycle(i-a0), true
		}
	}
	for i := b0; i < b1; i++ {
		if !t.busy[i] {
			return start + sim.Cycle(a1-a0+i-b0), true
		}
	}
	return 0, false
}

// lastShort returns the latest cycle in [from, end()) whose cell holds fewer
// than need free buffers.
func (t *outResTable) lastShort(from sim.Cycle, need int32) (sim.Cycle, bool) {
	a0, a1, b0, b1 := t.runs(from)
	for i := b1 - 1; i >= b0; i-- {
		if t.free[i] < need {
			return from + sim.Cycle(a1-a0+i-b0), true
		}
	}
	for i := a1 - 1; i >= a0; i-- {
		if t.free[i] < need {
			return from + sim.Cycle(i-a0), true
		}
	}
	return 0, false
}

// reserve reports how many downstream buffers must be left untouched by a
// reservation on behalf of control VC vc: every other VC's claimed buffers,
// plus one per other VC that has neither residents nor claims downstream (so
// a future head always finds a first buffer).
func (t *outResTable) reserve(vc int) int {
	r := 0
	for w := range t.outstanding {
		if w == vc {
			continue
		}
		switch {
		case t.claims[w] > 0:
			r += t.claims[w]
		case t.outstanding[w] == 0:
			r++
		}
	}
	return r
}

// admit sets aside k downstream buffers for a control flit on VC vc before
// its first per-flit commit, so that once any of its leads is committed the
// rest are guaranteed to fit eventually. It reports false (claiming nothing)
// when the steady-state free count cannot cover the claim on top of every
// other VC's protections.
func (t *outResTable) admit(vc, k int) bool {
	if t.infinite {
		return true
	}
	if t.steady < k+t.reserve(vc) {
		return false
	}
	t.claims[vc] += k
	return true
}

// releaseClaim converts one of VC vc's admitted claims into a real
// reservation; the caller pairs it with commit.
func (t *outResTable) releaseClaim(vc int) {
	if t.infinite {
		return
	}
	t.claims[vc]--
	if t.claims[vc] < 0 {
		panic("core: claim released without admission")
	}
}

// commit reserves the channel at td and one downstream buffer (attributed to
// control VC vc) from td+tp onward. The caller must have obtained td from
// findDeparture in the same cycle (no intervening commits invalidate it only
// if re-checked; the router always pairs find+commit).
func (t *outResTable) commit(td, tp sim.Cycle, vc int) {
	i := t.idx(td)
	if t.busy[i] {
		panic("core: committing a departure on a busy channel cycle")
	}
	t.busy[i] = true
	if t.infinite {
		return
	}
	t.outstanding[vc]++
	arr := td + tp
	t.steady--
	if arr >= t.end() {
		// The decrement is folded into steady; cells revealed before
		// arr must not see it.
		t.future = append(t.future, futureDelta{at: arr, delta: -1})
		return
	}
	t.shift(arr, -1)
}

// uncommit rolls back a commit made earlier in the same cycle, used by
// all-or-nothing scheduling when a later flit of the same control flit fails.
func (t *outResTable) uncommit(td, tp sim.Cycle, vc int) {
	i := t.idx(td)
	if !t.busy[i] {
		panic("core: uncommit of a non-busy channel cycle")
	}
	t.busy[i] = false
	if t.infinite {
		return
	}
	t.outstanding[vc]--
	if t.outstanding[vc] < 0 {
		panic("core: outstanding residency count went negative on uncommit")
	}
	arr := td + tp
	t.steady++
	if arr >= t.end() {
		for j := len(t.future) - 1; j >= 0; j-- {
			if t.future[j].at == arr && t.future[j].delta == -1 {
				t.future = append(t.future[:j], t.future[j+1:]...)
				return
			}
		}
		panic("core: uncommit found no matching future delta")
	}
	t.shift(arr, +1)
}

// creditFrom processes a downstream credit: one more buffer is free from
// cycle `from` onward, ending a residency attributed to control VC vc.
//
// A credit's release cycle always falls inside the window: the downstream
// scheduler picked it within its own horizon of equal length, and the credit
// wire adds at least one cycle, so from <= (now-1) + Horizon < end. The
// availability search relies on this — a beyond-window credit would mean
// cells revealed before `from` could silently dip below the searched
// minimum — so it is enforced rather than tolerated.
func (t *outResTable) creditFrom(from sim.Cycle, vc int) {
	if t.infinite {
		return
	}
	if from >= t.end() {
		panic(fmt.Sprintf("core: credit release cycle %d beyond window end %d — horizons out of sync", from, t.end()))
	}
	if from < t.base {
		from = t.base
	}
	t.outstanding[vc]--
	if t.outstanding[vc] < 0 {
		panic("core: outstanding residency count went negative on credit")
	}
	t.steady++
	if t.steady > t.cap {
		panic("core: free-buffer count exceeded downstream capacity")
	}
	t.shift(from, +1)
}

// shift adds delta to the free count of every cycle in [from, end()), which
// must stay within [0, cap] throughout.
func (t *outResTable) shift(from sim.Cycle, delta int32) {
	a0, a1, b0, b1 := t.runs(from)
	for _, run := range [2][]int32{t.free[a0:a1], t.free[b0:b1]} {
		for j := range run {
			run[j] += delta
			if run[j] < 0 {
				panic("core: downstream free-buffer count went negative")
			}
			if int(run[j]) > t.cap {
				panic("core: free-buffer cell exceeded downstream capacity")
			}
		}
	}
}
