package core

import (
	"fmt"
	"math/bits"

	"frfc/internal/sim"
)

// outResTable is the output reservation table of Figure 4: for every cycle in
// the window [base, base+size) it records whether the output channel is
// reserved (busy) and how many buffers will be free at the downstream input
// pool. The window slides forward with time; steady holds the free-buffer
// count at and beyond the window's end, so newly revealed cells inherit the
// net effect of every reservation and credit seen so far.
//
// Reservations decrement the free count from the flit's downstream arrival
// (t_d + t_p) through the horizon; credits from the downstream node increment
// it from the announced departure cycle onward. A reservation whose arrival
// lands past the window's end is carried in the future list and applied as
// the window reveals those cycles.
//
// The cells are packed as the hardware would hold them. Cycle base+k is lane
// (byte) k%8 of lanes[k/8] and bit k%64 of busy[k/64], so a sweep from any
// cycle to the window's end is one add, compare or bit scan per word, and
// sliding the window is a shift of both vectors. A lane counts to 127 with its
// top bit clear, which is what lets the compares borrow into it and no
// further; hence MaxDataBuffers. The lanes and bits past the window's last
// cycle stay zero.
type outResTable struct {
	size  int // Horizon+1 cells: departures reservable in [now+1, now+Horizon]
	base  sim.Cycle
	lanes []uint64 // free-buffer counts, eight cycles a word
	busy  []uint64 // channel reserved, 64 cycles a word
	// tail masks the lanes of lanes' last word that lie inside the window.
	tail   uint64
	cap    int // downstream pool capacity, for overflow checks
	steady int
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

// Lane constants: one in every lane, and every lane's top bit.
const (
	laneOnes uint64 = 0x0101010101010101
	laneTops uint64 = 0x8080808080808080
)

// MaxDataBuffers is the largest downstream pool a reservation table's byte
// lanes can count: a lane holds up to 127 with its top bit clear, and a credit
// that overflows the pool must still read as cap+1 to be caught.
const MaxDataBuffers = 126

// tableWords returns how many words a table of size cells takes: its lanes,
// then its busy bits.
func tableWords(size int) (lanes, busy int) { return (size + 7) / 8, (size + 63) / 64 }

// init lays the table out in place on the arena's memory, for reset to fill.
// tp is the propagation
// delay of the channel the table schedules: a commit lands on the future list
// only while its arrival td+tp lies past the window, which at most tp distinct
// departures can, so that is the list's room.
func (t *outResTable) init(a *arena, horizon sim.Cycle, buffers, ctrlVCs int, tp sim.Cycle, infinite bool) {
	if infinite {
		tp = 0 // counts no buffers, so commits nothing to the future
	}
	size := int(horizon) + 1
	nl, nb := tableWords(size)
	words := carve(&a.tables, nl+nb)
	perVC := carve(&a.counts, 2*ctrlVCs)
	*t = outResTable{
		size:        size,
		lanes:       words[:nl:nl],
		busy:        words[nl:],
		tail:        lanesBelow(size - (nl-1)*8),
		cap:         buffers,
		infinite:    infinite,
		outstanding: perVC[:ctrlVCs:ctrlVCs],
		claims:      perVC[ctrlVCs:],
		future:      carve(&a.future, int(tp))[:0],
	}
}

// lanesBelow returns a mask of a word's lanes below lane n, 0 <= n <= 8.
func lanesBelow(n int) uint64 { return 1<<(8*n) - 1 }

// reset returns the table to its just-built state: the window at cycle 0, no
// channel cycle reserved, every downstream buffer free now and for good, and
// no residency, claim or future delta outstanding.
func (t *outResTable) reset() {
	t.base = 0
	clear(t.busy)
	clear(t.lanes)
	t.steady = t.cap
	clear(t.outstanding)
	clear(t.claims)
	t.future = t.future[:0]
	t.reveal(0)
}

// idx returns the offset of cycle c in the window, which c must lie inside.
func (t *outResTable) idx(c sim.Cycle) int {
	if c < t.base || c >= t.end() {
		panic(fmt.Sprintf("core: cycle %d outside window [%d,%d)", c, t.base, t.end()))
	}
	return int(c - t.base)
}

// freeAt reports the free-buffer count recorded for cycle c.
func (t *outResTable) freeAt(c sim.Cycle) int {
	k := t.idx(c)
	return int(t.lanes[k>>3] >> (k & 7 * 8) & 0xff)
}

// end returns one past the last cycle in the window.
func (t *outResTable) end() sim.Cycle { return t.base + sim.Cycle(t.size) }

// advance slides the window so it starts at now, dropping expired cells.
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
	s := now - t.base
	t.base = now
	if s >= sim.Cycle(t.size) {
		// The whole window expired while its owner had no use for it.
		clear(t.busy)
		clear(t.lanes)
		t.reveal(0)
	} else {
		slideDown(t.lanes, 8*int(s))
		slideDown(t.busy, int(s))
		t.reveal(t.size - int(s))
	}
	t.pruneFuture()
}

// slideDown moves every bit of the vector w down by n < 64·len(w) places;
// what comes in at the top is zero.
func slideDown(w []uint64, n int) {
	if q := n >> 6; q > 0 {
		copy(w, w[q:])
		clear(w[len(w)-q:])
	}
	r, last := uint(n&63), len(w)-1
	for i := 0; i < last; i++ {
		w[i] = w[i]>>r | w[i+1]<<(64-r)
	}
	w[last] >>= r
}

// reveal fills the lanes of cycles base+k on, which must be zero, with the
// free counts those newly revealed cycles start from: steady, excluding
// future events that take effect only after the cycle.
func (t *outResTable) reveal(k int) {
	if len(t.future) == 0 {
		v := uint64(t.steady) * laneOnes
		m := ^uint64(0) << (k & 7 * 8)
		for w := k >> 3; w < len(t.lanes); w++ {
			if w == len(t.lanes)-1 {
				m &= t.tail
			}
			t.lanes[w] |= v & m
			m = ^uint64(0)
		}
		return
	}
	for ; k < t.size; k++ {
		v := t.steady
		for _, f := range t.future {
			if f.at > t.base+sim.Cycle(k) {
				v -= f.delta
			}
		}
		t.lanes[k>>3] |= uint64(v) << (k & 7 * 8)
	}
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
			if short, found := t.lastShort(lo, need); found {
				if start = short + 1 - tp; start >= t.end() {
					return 0, false
				}
			}
		}
	}
	// The earliest unreserved channel cycle from start on.
	k := int(start - t.base)
	m := ^uint64(0) << (k & 63)
	for w := k >> 6; w < len(t.busy); w++ {
		if free := ^t.busy[w] & m; free != 0 {
			if k = w<<6 + bits.TrailingZeros64(free); k < t.size {
				return t.base + sim.Cycle(k), true
			}
			break
		}
		m = ^uint64(0)
	}
	return 0, false
}

// lastShort returns the latest cycle in [from, end()) whose cell holds fewer
// than need free buffers. need is at most steady, so at most MaxDataBuffers:
// a lane ORed with its top bit then less need borrows into that bit, never
// past it, and the bit survives exactly when the lane holds need or more.
func (t *outResTable) lastShort(from sim.Cycle, need int) (sim.Cycle, bool) {
	k := int(from - t.base)
	n := uint64(need) * laneOnes
	m := t.tail & laneTops
	for w := len(t.lanes) - 1; w >= k>>3; w-- {
		if w == k>>3 {
			m &= ^uint64(0) << (k & 7 * 8)
		}
		if short := ^((t.lanes[w] | laneTops) - n) & m; short != 0 {
			return t.base + sim.Cycle(w<<3+(63-bits.LeadingZeros64(short))>>3), true
		}
		m = laneTops
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
	k := t.idx(td)
	bit := uint64(1) << (k & 63)
	if t.busy[k>>6]&bit != 0 {
		panic("core: committing a departure on a busy channel cycle")
	}
	t.busy[k>>6] |= bit
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
	k := t.idx(td)
	bit := uint64(1) << (k & 63)
	if t.busy[k>>6]&bit == 0 {
		panic("core: uncommit of a non-busy channel cycle")
	}
	t.busy[k>>6] &^= bit
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

// shift adds delta, -1 or +1, to the free count of every cycle in
// [from, end()), which must stay within [0, cap] throughout. A lane about to
// lose one is checked for zero first, and a lane that gained one is checked
// against cap by adding 127-cap, which carries into its top bit only from
// above cap.
func (t *outResTable) shift(from sim.Cycle, delta int) {
	k := int(from - t.base)
	lanes := t.lanes[k>>3:]
	over := uint64(127-t.cap) * laneOnes
	m := ^uint64(0) << (k & 7 * 8)
	for i, x := range lanes {
		if i == len(lanes)-1 {
			m &= t.tail
		}
		if delta < 0 {
			if ^((x|laneTops)-laneOnes)&m&laneTops != 0 {
				panic("core: downstream free-buffer count went negative")
			}
			x -= m & laneOnes
		} else if x += m & laneOnes; (x+over)&m&laneTops != 0 {
			panic("core: free-buffer cell exceeded downstream capacity")
		}
		lanes[i] = x
		m = ^uint64(0)
	}
}
