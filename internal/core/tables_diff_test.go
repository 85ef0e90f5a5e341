package core

import (
	"fmt"
	"testing"

	"frfc/internal/sim"
)

// modTable is the reference the two-run sweeps of outResTable are tested
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

// sameWindow fails the test unless both tables agree on every cell of the
// window and on the counts behind it.
func sameWindow(t *testing.T, where string, tb *outResTable, ref *modTable) {
	t.Helper()
	if tb.base != ref.base || tb.steady != ref.steady {
		t.Fatalf("%s: base/steady %d/%d, reference %d/%d", where, tb.base, tb.steady, ref.base, ref.steady)
	}
	for c := tb.base; c < tb.end(); c++ {
		if tb.freeAt(c) != ref.free[ref.idx(c)] || tb.busyAt(c) != ref.busy[ref.idx(c)] {
			t.Fatalf("%s: cycle %d free/busy %d/%v, reference %d/%v",
				where, c, tb.freeAt(c), tb.busyAt(c), ref.free[ref.idx(c)], ref.busy[ref.idx(c)])
		}
	}
	for v := range tb.outstanding {
		if tb.outstanding[v] != ref.outstanding[v] {
			t.Fatalf("%s: outstanding[%d] = %d, reference %d", where, v, tb.outstanding[v], ref.outstanding[v])
		}
	}
}

// TestOutResTableMatchesModuloReference runs the table and the reference
// through the same random life — reservations, all-or-nothing rollbacks,
// credits, time moving a cycle or two at a step and now and then past the
// whole window — long enough that the window's start visits every cell many
// times, for horizons below, at and beside the paper's 32.
func TestOutResTableMatchesModuloReference(t *testing.T) {
	type resident struct {
		freeFrom sim.Cycle
		vc       int
	}
	for _, horizon := range []sim.Cycle{1, 7, 32, 33} {
		for _, tp := range []sim.Cycle{1, 4} {
			rng := sim.NewRNG(uint64(horizon)*131 + uint64(tp))
			const buffers, vcs = 5, 2
			tb := newOutResTable(horizon, buffers, vcs, false)
			ref := newModTable(horizon, buffers, vcs)
			now := sim.Cycle(0)
			var residents []resident
			for step := 0; step < 6000; step++ {
				where := fmt.Sprintf("horizon %d tp %d step %d cycle %d", horizon, tp, step, now)
				switch r := rng.Intn(40); {
				case r == 0:
					now += horizon + 1 + sim.Cycle(rng.Intn(5))
				case r < 30:
					now += sim.Cycle(rng.Intn(3))
				}
				tb.advance(now)
				ref.advance(now)
				sameWindow(t, where+" after advance", tb, ref)

				// Credits whose release cycle has come into the window.
				kept := residents[:0]
				for _, res := range residents {
					if res.freeFrom < tb.end() && rng.Bool(0.5) {
						tb.creditFrom(res.freeFrom, res.vc)
						ref.creditFrom(res.freeFrom, res.vc)
					} else {
						kept = append(kept, res)
					}
				}
				residents = kept
				sameWindow(t, where+" after credits", tb, ref)

				// A control flit's worth of reservations, sometimes rolled back.
				vc := rng.Intn(vcs)
				ta := now + sim.Cycle(rng.Intn(int(horizon)+3)) - 1
				var tds []sim.Cycle
				for lead := 0; lead < 1+rng.Intn(3); lead++ {
					td, ok := tb.findDeparture(now, ta, tp, vc)
					rtd, rok := ref.findDeparture(now, ta, tp, vc)
					if ok != rok || td != rtd {
						t.Fatalf("%s: findDeparture(ta=%d, vc=%d) = %d,%v; reference %d,%v", where, ta, vc, td, ok, rtd, rok)
					}
					if !ok {
						break
					}
					tb.commit(td, tp, vc)
					ref.commit(td, tp, vc)
					tds = append(tds, td)
				}
				sameWindow(t, where+" after commits", tb, ref)
				if rng.Bool(0.2) {
					for _, td := range tds {
						tb.uncommit(td, tp, vc)
						ref.uncommit(td, tp, vc)
					}
					sameWindow(t, where+" after rollback", tb, ref)
					continue
				}
				for _, td := range tds {
					residents = append(residents, resident{freeFrom: td + tp + sim.Cycle(rng.Intn(4)), vc: vc})
				}
			}
		}
	}
}

// TestOutResTablePanicsSurviveTheSweeps: the checks the per-cell loops used
// to make still fire from the two-run sweeps.
func TestOutResTablePanicsSurviveTheSweeps(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	// Park the window so its start sits mid-array and the sweeps wrap.
	wrapped := func(buffers int) *outResTable {
		tb := newOutResTable(7, buffers, 1, false)
		for now := sim.Cycle(0); now <= 5; now++ {
			tb.advance(now)
		}
		return tb
	}
	mustPanic("negative free count", func() {
		tb := wrapped(1)
		tb.commit(6, 1, 0)
		tb.commit(7, 1, 0)
	})
	mustPanic("cell over capacity", func() {
		tb := wrapped(2)
		tb.commit(7, 5, 0)  // arrives at 12, the window's last cycle
		tb.creditFrom(6, 0) // released before it arrived: cells 6–11 overflow
	})
	mustPanic("busy cell", func() {
		tb := wrapped(3)
		tb.commit(9, 1, 0)
		tb.commit(9, 1, 0)
	})
	mustPanic("commit outside the window", func() { wrapped(3).commit(13, 1, 0) })
	mustPanic("commit before the window", func() { wrapped(3).commit(4, 1, 0) })
	mustPanic("find before advancing", func() { wrapped(3).findDeparture(6, 6, 1, 0) })
	mustPanic("credit beyond the window", func() {
		tb := wrapped(3)
		tb.commit(6, 1, 0)
		tb.creditFrom(13, 0)
	})
}

// cloneTable deep-copies a table so two slides can start from one state.
func cloneTable(t *outResTable) *outResTable {
	c := *t
	c.busy = append([]bool(nil), t.busy...)
	c.free = append([]int32(nil), t.free...)
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
			if k < size && step.baseIdx != jump.baseIdx {
				t.Fatalf("%s: baseIdx %d stepwise, %d in one jump", where, step.baseIdx, jump.baseIdx)
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
