package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"frfc/internal/sim"
)

// modTable is the reference the word sweeps of outResTable are tested
// against: the same bookkeeping with every cell addressed as c % size, every
// sweep one cell at a time, and the departure search through a full
// suffix-minimum array. It keeps only what the comparison needs (no claims).
type modTable struct {
	size        int
	base        sim.Cycle
	busy        []bool
	free        []int
	cap, steady int
	outstanding []int
	future      []futureDelta
}

func newModTable(horizon sim.Cycle, buffers, vcs int) *modTable {
	m := &modTable{size: int(horizon) + 1, cap: buffers, steady: buffers, outstanding: make([]int, vcs)}
	m.busy = make([]bool, m.size)
	m.free = make([]int, m.size)
	for i := range m.free {
		m.free[i] = buffers
	}
	return m
}

func (m *modTable) idx(c sim.Cycle) int { return int(c % sim.Cycle(m.size)) }
func (m *modTable) end() sim.Cycle      { return m.base + sim.Cycle(m.size) }

func (m *modTable) reveal(c sim.Cycle) int {
	v := m.steady
	for _, f := range m.future {
		if f.at > c {
			v -= f.delta
		}
	}
	return v
}

func (m *modTable) advance(now sim.Cycle) {
	if now == m.base {
		return // as the table does, leaving the future list as it is
	}
	if now-m.base >= sim.Cycle(m.size) {
		m.base = now
		for c := m.base; c < m.end(); c++ {
			m.busy[m.idx(c)] = false
			m.free[m.idx(c)] = m.reveal(c)
		}
	}
	for m.base < now {
		i := m.idx(m.base)
		m.busy[i] = false
		m.free[i] = m.reveal(m.base + sim.Cycle(m.size))
		m.base++
	}
	n := 0
	for _, f := range m.future {
		if f.at > m.end() {
			m.future[n] = f
			n++
		}
	}
	m.future = m.future[:n]
}

func (m *modTable) findDeparture(now, ta, tp sim.Cycle, vc int) (sim.Cycle, bool) {
	start := ta
	if start < now+1 {
		start = now + 1
	}
	need := 1
	for w := range m.outstanding {
		if w != vc && m.outstanding[w] == 0 {
			need++
		}
	}
	sufMin := make([]int, m.size+1)
	sufMin[m.size] = m.steady
	for i := m.size - 1; i >= 0; i-- {
		sufMin[i] = m.free[m.idx(m.base+sim.Cycle(i))]
		if sufMin[i+1] < sufMin[i] {
			sufMin[i] = sufMin[i+1]
		}
	}
	for c := start; c < m.end(); c++ {
		if m.busy[m.idx(c)] {
			continue
		}
		minFree := m.steady
		if arr := c + tp; arr < m.end() {
			minFree = sufMin[arr-m.base]
		}
		if minFree >= need && m.steady >= need {
			return c, true
		}
	}
	return 0, false
}

func (m *modTable) commit(td, tp sim.Cycle, vc int) {
	m.busy[m.idx(td)] = true
	m.outstanding[vc]++
	m.steady--
	for c := td + tp; c < m.end(); c++ {
		m.free[m.idx(c)]--
	}
	if td+tp >= m.end() {
		m.future = append(m.future, futureDelta{at: td + tp, delta: -1})
	}
}

func (m *modTable) uncommit(td, tp sim.Cycle, vc int) {
	m.busy[m.idx(td)] = false
	m.outstanding[vc]--
	m.steady++
	for c := td + tp; c < m.end(); c++ {
		m.free[m.idx(c)]++
	}
	if td+tp >= m.end() {
		for j := len(m.future) - 1; j >= 0; j-- {
			if m.future[j].at == td+tp {
				m.future = append(m.future[:j], m.future[j+1:]...)
				return
			}
		}
	}
}

func (m *modTable) creditFrom(from sim.Cycle, vc int) {
	if from < m.base {
		from = m.base
	}
	m.outstanding[vc]--
	m.steady++
	for c := from; c < m.end(); c++ {
		m.free[m.idx(c)]++
	}
}

// windowDiff describes the first way the table and the reference disagree —
// on a cell of the window, or on the counts and future list behind it — or
// the first lane or busy bit past the window's end that is not zero; "" if
// there is none.
func windowDiff(tb *outResTable, ref *modTable) string {
	if tb.base != ref.base || tb.steady != ref.steady {
		return fmt.Sprintf("base/steady %d/%d, reference %d/%d", tb.base, tb.steady, ref.base, ref.steady)
	}
	for c := tb.base; c < tb.end(); c++ {
		if tb.freeAt(c) != ref.free[ref.idx(c)] || tb.busyAt(c) != ref.busy[ref.idx(c)] {
			return fmt.Sprintf("cycle %d free/busy %d/%v, reference %d/%v",
				c, tb.freeAt(c), tb.busyAt(c), ref.free[ref.idx(c)], ref.busy[ref.idx(c)])
		}
	}
	if !slices.Equal(tb.outstanding, ref.outstanding) || !slices.Equal(tb.future, ref.future) {
		return fmt.Sprintf("outstanding/future %v/%v, reference %v/%v", tb.outstanding, tb.future, ref.outstanding, ref.future)
	}
	if pad := tb.lanes[len(tb.lanes)-1] &^ tb.tail; pad != 0 {
		return fmt.Sprintf("lanes past the window hold %#x", pad)
	}
	for k := tb.size; k < 64*len(tb.busy); k++ {
		if tb.busy[k>>6]>>(k&63)&1 != 0 {
			return fmt.Sprintf("busy bit %d past the window is set", k)
		}
	}
	return ""
}

// lockstep drives a table and its reference through the same operations,
// each kept legal the way a router keeps it, and compares the two windows
// after every one.
type lockstep struct {
	t        *testing.T
	tb       *outResTable
	ref      *modTable
	tp, now  sim.Cycle
	vcs      int
	resident []commitment // committed in an earlier cycle, awaiting credit
	fresh    []commitment // committed this cycle, which uncommit may roll back
}

type commitment struct {
	td sim.Cycle
	vc int
}

func newLockstep(t *testing.T, horizon sim.Cycle, buffers, vcs int, tp sim.Cycle) *lockstep {
	return &lockstep{t: t, tb: newOutResTable(horizon, buffers, vcs, false), ref: newModTable(horizon, buffers, vcs), tp: tp, vcs: vcs}
}

// same fails the test unless the two windows agree after op at cycle c.
func (l *lockstep) same(op string, c sim.Cycle) {
	l.t.Helper()
	if d := windowDiff(l.tb, l.ref); d != "" {
		l.t.Fatalf("cycle %d after %s %d: %s", l.now, op, c, d)
	}
}

// advance moves time on by k cycles; what was committed becomes resident.
func (l *lockstep) advance(k sim.Cycle) {
	l.t.Helper()
	if k > 0 {
		l.resident = append(l.resident, l.fresh...)
		l.fresh = l.fresh[:0]
	}
	l.now += k
	l.tb.advance(l.now)
	l.ref.advance(l.now)
	l.same("advance by", k)
}

// find searches both tables for a flit arriving at ta and reports the
// departure they agree on.
func (l *lockstep) find(ta sim.Cycle, vc int) (sim.Cycle, bool) {
	l.t.Helper()
	td, ok := l.tb.findDeparture(l.now, ta, l.tp, vc)
	rtd, rok := l.ref.findDeparture(l.now, ta, l.tp, vc)
	if ok != rok || td != rtd {
		l.t.Fatalf("cycle %d: findDeparture(ta=%d, vc=%d) = %d,%v; reference %d,%v", l.now, ta, vc, td, ok, rtd, rok)
	}
	return td, ok
}

// commit reserves what find grants, as scheduleLeads does.
func (l *lockstep) commit(ta sim.Cycle, vc int) bool {
	l.t.Helper()
	td, ok := l.find(ta, vc)
	if ok {
		l.tb.commit(td, l.tp, vc)
		l.ref.commit(td, l.tp, vc)
		l.fresh = append(l.fresh, commitment{td, vc})
		l.same("commit at", td)
	}
	return ok
}

// uncommit rolls back this cycle's latest commit.
func (l *lockstep) uncommit() {
	l.t.Helper()
	if len(l.fresh) == 0 {
		return
	}
	c := l.fresh[len(l.fresh)-1]
	l.fresh = l.fresh[:len(l.fresh)-1]
	l.tb.uncommit(c.td, l.tp, c.vc)
	l.ref.uncommit(c.td, l.tp, c.vc)
	l.same("uncommit at", c.td)
}

// credit returns resident i's buffer, freed lag cycles after its arrival,
// once that release cycle has come into the window.
func (l *lockstep) credit(i int, lag sim.Cycle) {
	l.t.Helper()
	c := l.resident[i]
	from := c.td + l.tp + lag
	if from >= l.tb.end() {
		return
	}
	l.resident = append(l.resident[:i], l.resident[i+1:]...)
	l.tb.creditFrom(from, c.vc)
	l.ref.creditFrom(from, c.vc)
	l.same("credit from", from)
}

// TestOutResTableMatchesModuloReference runs the table and the reference
// through the same random life — reservations, all-or-nothing rollbacks,
// credits, time moving a cycle or two at a step and now and then by up to or
// past the whole window — for horizons around every word boundary of the lanes and
// the busy bits, and pools from two buffers to the most a lane can count.
func TestOutResTableMatchesModuloReference(t *testing.T) {
	for _, horizon := range []sim.Cycle{1, 7, 8, 9, 32, 33, 63, 64, 65, 128} {
		for _, buffers := range []int{2, 5, MaxDataBuffers} {
			for _, tp := range []sim.Cycle{1, 4} {
				rng := sim.NewRNG(uint64(horizon)*131 + uint64(buffers)*7 + uint64(tp))
				l := newLockstep(t, horizon, buffers, 2, tp)
				for step := 0; step < 2000; step++ {
					switch r := rng.Intn(40); {
					case r == 0:
						l.advance(horizon + 1 + sim.Cycle(rng.Intn(5)))
					case r == 1:
						l.advance(sim.Cycle(rng.Intn(int(horizon) + 1)))
					case r < 30:
						l.advance(sim.Cycle(rng.Intn(3)))
					}
					for i := len(l.resident) - 1; i >= 0; i-- {
						if rng.Bool(0.5) {
							l.credit(i, sim.Cycle(rng.Intn(4)))
						}
					}
					// A control flit's worth of reservations, sometimes rolled back.
					vc := rng.Intn(l.vcs)
					ta := l.now + sim.Cycle(rng.Intn(int(horizon)+3)) - 1
					for lead := 0; lead < 1+rng.Intn(3); lead++ {
						if !l.commit(ta, vc) {
							break
						}
					}
					if rng.Bool(0.2) {
						for len(l.fresh) > 0 {
							l.uncommit()
						}
					}
				}
			}
		}
	}
}

// FuzzOutResTable drives the table and the reference with one fuzzed stream
// of operations — advance by k, find, commit, uncommit, credit — over a
// fuzzed horizon, pool and propagation delay, and compares the whole window
// after each. Search with
//
//	go test ./internal/core -run '^$' -fuzz '^FuzzOutResTable$' -fuzztime 30s
func FuzzOutResTable(f *testing.F) {
	f.Add(uint8(31), uint8(5), uint8(3), []byte{2, 3, 2, 4, 0, 1, 4, 0, 2, 9, 3, 0, 0, 40, 1, 2})
	f.Add(uint8(127), uint8(125), uint8(0), []byte{2, 130, 2, 127, 2, 1, 0, 2, 4, 3, 4, 7, 0, 200, 2, 0})
	f.Add(uint8(7), uint8(1), uint8(5), []byte{2, 0, 2, 1, 2, 2, 3, 0, 0, 1, 4, 0, 4, 64, 1, 9})
	f.Add(uint8(63), uint8(12), uint8(2), []byte{2, 62, 2, 63, 2, 64, 0, 3, 4, 1, 2, 50, 0, 70, 2, 5})
	f.Fuzz(func(t *testing.T, horizon, buffers, tp uint8, ops []byte) {
		h := 1 + sim.Cycle(horizon)%130
		l := newLockstep(t, h, 1+int(buffers)%MaxDataBuffers, 2, 1+sim.Cycle(tp)%6)
		for i := 0; i+1 < len(ops) && i < 1024; i += 2 {
			arg := int(ops[i+1])
			switch ops[i] % 5 {
			case 0:
				l.advance(sim.Cycle(arg) % (h + 4))
			case 1:
				l.find(l.now+sim.Cycle(arg%int(h+2))-1, arg>>7)
			case 2:
				l.commit(l.now+sim.Cycle(arg%int(h+2))-1, arg>>7)
			case 3:
				l.uncommit()
			case 4:
				if len(l.resident) > 0 {
					l.credit(arg%len(l.resident), sim.Cycle(arg>>6))
				}
			}
		}
	})
}

// TestOutResTablePanicsSurviveTheSweeps: the checks the per-cell loops used
// to make still fire from the word sweeps — on a cell in the first word, in a
// middle word and in the last, partial word of the lanes and of the busy bits.
func TestOutResTablePanicsSurviveTheSweeps(t *testing.T) {
	mustPanic := func(name, want string, fn func()) {
		t.Helper()
		defer func() {
			t.Helper()
			if msg := fmt.Sprint(recover()); !strings.Contains(msg, want) {
				t.Fatalf("%s: panic %q, want one containing %q", name, msg, want)
			}
		}()
		fn()
	}
	// A window of 131 cycles is 16 full lane words and 3 lanes, and two full
	// busy words and 3 bits; slid a few cycles so its start is not cycle 0.
	const horizon, base = 130, 5
	slid := func(buffers int) *outResTable {
		tb := newOutResTable(horizon, buffers, 1, false)
		for now := sim.Cycle(0); now <= base; now++ {
			tb.advance(now)
		}
		return tb
	}
	for _, k := range []sim.Cycle{3, 70, 129} {
		at := base + k
		mustPanic(fmt.Sprintf("negative free count at offset %d", k), "went negative", func() {
			tb := slid(1)
			tb.commit(at-2, 2, 0) // the one buffer is taken from cycle at on
			tb.commit(at-1, 1, 0) // and taken again from the same cycle
		})
		mustPanic(fmt.Sprintf("cell over capacity at offset %d", k), "cell exceeded", func() {
			tb := slid(2)
			tb.commit(base+horizon, 4, 0) // arrives past the window: every cell stays at cap
			tb.creditFrom(at, 0)          // released inside it: cells at on overflow
		})
		mustPanic(fmt.Sprintf("busy cell at offset %d", k), "busy channel cycle", func() {
			tb := slid(3)
			tb.commit(at, 1, 0)
			tb.commit(at, 1, 0)
		})
		mustPanic(fmt.Sprintf("uncommit of a free cell at offset %d", k), "non-busy", func() {
			slid(3).uncommit(at, 1, 0)
		})
	}
	mustPanic("commit outside the window", "outside window", func() { slid(3).commit(base+horizon+1, 1, 0) })
	mustPanic("commit before the window", "outside window", func() { slid(3).commit(base-1, 1, 0) })
	mustPanic("find before advancing", "before advancing", func() { slid(3).findDeparture(base+1, base+1, 1, 0) })
	mustPanic("credit beyond the window", "beyond window end", func() {
		tb := slid(3)
		tb.commit(base+1, 1, 0)
		tb.creditFrom(base+horizon+1, 0)
	})
}

// cloneTable deep-copies a table so two slides can start from one state.
func cloneTable(t *outResTable) *outResTable {
	c := *t
	c.busy = append([]uint64(nil), t.busy...)
	c.lanes = append([]uint64(nil), t.lanes...)
	c.outstanding = append([]int(nil), t.outstanding...)
	c.claims = append([]int(nil), t.claims...)
	c.future = append([]futureDelta(nil), t.future...)
	return &c
}

// TestLateSlideMatchesEveryCycleSlide is what lets a table's owner sleep: a
// table with reservations on its channel, residencies outstanding downstream
// and arrivals pending beyond its window ends up the same whether it is slid
// through k idle cycles one at a time or over all of them at once — every
// cell, the counts behind them and the future list. k runs from one cycle to
// past the whole window, where the jump resets the cells instead of walking
// them.
func TestLateSlideMatchesEveryCycleSlide(t *testing.T) {
	const horizon, buffers, vcs, tp = 9, 6, 2, 4
	size := sim.Cycle(horizon + 1)
	rng := sim.NewRNG(77)
	tb := newOutResTable(horizon, buffers, vcs, false)
	now := sim.Cycle(0)
	type resident struct {
		freeFrom sim.Cycle
		vc       int
	}
	var residents []resident
	sawFuture := 0
	for round := 0; round < 400; round++ {
		// A few busy cycles of ordinary life: reservations toward the end of
		// the window (whose arrivals land beyond it) and the odd credit.
		for i := 0; i < 1+rng.Intn(4); i++ {
			now += sim.Cycle(rng.Intn(2))
			tb.advance(now)
			kept := residents[:0]
			for _, res := range residents {
				if res.freeFrom < tb.end() && rng.Bool(0.4) {
					tb.creditFrom(res.freeFrom, res.vc)
				} else {
					kept = append(kept, res)
				}
			}
			residents = kept
			vc := rng.Intn(vcs)
			if td, ok := tb.findDeparture(now, now+sim.Cycle(rng.Intn(horizon+1)), tp, vc); ok {
				tb.commit(td, tp, vc)
				residents = append(residents, resident{freeFrom: td + tp + sim.Cycle(rng.Intn(4)), vc: vc})
			}
		}
		if len(tb.future) > 0 {
			sawFuture++
		}
		for _, k := range []sim.Cycle{1, size - 1, size, size + 3} {
			step, jump := cloneTable(tb), cloneTable(tb)
			for c := now + 1; c <= now+k; c++ {
				step.advance(c)
			}
			jump.advance(now + k)
			where := fmt.Sprintf("round %d cycle %d slide %d", round, now, k)
			if step.base != jump.base || step.steady != jump.steady {
				t.Fatalf("%s: base/steady %d/%d stepwise, %d/%d in one jump", where, step.base, step.steady, jump.base, jump.steady)
			}
			for c := step.base; c < step.end(); c++ {
				if step.freeAt(c) != jump.freeAt(c) || step.busyAt(c) != jump.busyAt(c) {
					t.Fatalf("%s: cycle %d free/busy %d/%v stepwise, %d/%v in one jump",
						where, c, step.freeAt(c), step.busyAt(c), jump.freeAt(c), jump.busyAt(c))
				}
			}
			if fmt.Sprint(step.future) != fmt.Sprint(jump.future) || fmt.Sprint(step.outstanding) != fmt.Sprint(jump.outstanding) {
				t.Fatalf("%s: future/outstanding %v/%v stepwise, %v/%v in one jump",
					where, step.future, step.outstanding, jump.future, jump.outstanding)
			}
		}
	}
	if sawFuture < 50 {
		t.Fatalf("only %d of 400 rounds slid a table with a non-empty future list", sawFuture)
	}
}
