package core

import (
	"testing"

	"frfc/internal/sim"
)

func TestCycleRingWrapsAroundItsSpan(t *testing.T) {
	r := newCycleRing[int](5)
	// Slide the window several spans forward one cycle at a time, keeping
	// three entries ahead of it, so every cell is reused many times.
	for now := sim.Cycle(0); now < 23; now++ {
		r.advance(now)
		if !r.put(now+4, int(now+4)) {
			t.Fatalf("cycle %d: put at the window's last cycle found it taken", now)
		}
		if now >= 4 {
			v, ok := r.take(now)
			if !ok || v != int(now) {
				t.Fatalf("cycle %d: take = %d, %v; want %d, true", now, v, ok, now)
			}
		}
		if want := 4; now >= 4 && r.len() != want {
			t.Fatalf("cycle %d: len = %d, want %d", now, r.len(), want)
		}
	}
}

func TestCycleRingAliasedCycleReadsAbsent(t *testing.T) {
	r := newCycleRing[string](4)
	r.advance(10)
	r.put(11, "eleven")
	// 7 and 15 map to the cell that holds 11; neither may see its entry.
	for _, c := range []sim.Cycle{7, 15, 11 + 4*100} {
		if v, ok := r.get(c); ok {
			t.Fatalf("get(%d) = %q, true; the cell holds cycle 11", c, v)
		}
		if _, ok := r.take(c); ok {
			t.Fatalf("take(%d) removed cycle 11's entry", c)
		}
	}
	if v, ok := r.get(11); !ok || v != "eleven" {
		t.Fatalf("get(11) = %q, %v after aliased lookups", v, ok)
	}
	if _, ok := r.get(12); ok {
		t.Fatal("an empty cell inside the window read as present")
	}
}

func TestCycleRingPutOutsideWindowPanics(t *testing.T) {
	for _, c := range []sim.Cycle{9, 14, 1000} {
		c := c
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("put(%d) outside [10,14) did not panic", c)
				}
			}()
			r := newCycleRing[int](4)
			r.advance(10)
			r.put(c, 1)
		}()
	}
}

func TestCycleRingDuplicateClearAndCount(t *testing.T) {
	r := newCycleRing[int](8)
	if !r.put(3, 30) || !r.put(5, 50) {
		t.Fatal("puts into an empty ring refused")
	}
	if r.put(3, 31) {
		t.Fatal("second put on one cycle accepted")
	}
	if v, _ := r.get(3); v != 30 {
		t.Fatalf("refused put overwrote the entry: %d", v)
	}
	if r.len() != 2 {
		t.Fatalf("len = %d, want 2", r.len())
	}
	var seen []sim.Cycle
	r.each(func(c sim.Cycle, v int) { seen = append(seen, c) })
	if len(seen) != 2 || seen[0] != 3 || seen[1] != 5 {
		t.Fatalf("each visited %v, want [3 5]", seen)
	}
	r.clear()
	if r.len() != 0 {
		t.Fatalf("len = %d after clear", r.len())
	}
	if _, ok := r.get(5); ok {
		t.Fatal("entry survived clear")
	}
	if !r.put(5, 51) {
		t.Fatal("cleared cell refused a put")
	}
}

func TestCycleRingAdvanceDropsExpiredAndJumps(t *testing.T) {
	r := newCycleRing[int](6)
	r.put(1, 1)
	r.put(4, 4)
	r.advance(3)
	if _, ok := r.get(1); ok || r.len() != 1 {
		t.Fatalf("expired entry survived advance (len %d)", r.len())
	}
	r.advance(2) // backwards: no-op
	if v, ok := r.get(4); !ok || v != 4 {
		t.Fatal("moving backwards disturbed the window")
	}
	r.advance(500) // past the whole span
	if r.len() != 0 {
		t.Fatalf("len = %d after jumping past the span", r.len())
	}
	if !r.put(505, 5) {
		t.Fatal("put at the jumped window's last cycle refused")
	}
}

// TestCycleRingMatchesMap drives a ring and a map with the same stream of
// in-window operations and demands identical answers throughout.
func TestCycleRingMatchesMap(t *testing.T) {
	for _, span := range []sim.Cycle{1, 2, 7, 33} {
		rng := sim.NewRNG(uint64(span) * 977)
		r := newCycleRing[int](span)
		ref := map[sim.Cycle]int{}
		now := sim.Cycle(0)
		for step := 0; step < 20000; step++ {
			c := now + sim.Cycle(rng.Intn(int(span)))
			switch rng.Intn(5) {
			case 0, 1:
				_, dup := ref[c]
				if r.put(c, step) == dup {
					t.Fatalf("span %d step %d: put(%d) accepted=%v but map dup=%v", span, step, c, !dup, dup)
				}
				if !dup {
					ref[c] = step
				}
			case 2:
				v, ok := r.get(c)
				rv, rok := ref[c]
				if ok != rok || v != rv {
					t.Fatalf("span %d step %d: get(%d) = %d,%v; map %d,%v", span, step, c, v, ok, rv, rok)
				}
			case 3:
				v, ok := r.take(c)
				rv, rok := ref[c]
				delete(ref, c)
				if ok != rok || v != rv {
					t.Fatalf("span %d step %d: take(%d) = %d,%v; map %d,%v", span, step, c, v, ok, rv, rok)
				}
			case 4:
				now += sim.Cycle(rng.Intn(3))
				r.advance(now)
				for k := range ref {
					if k < now {
						delete(ref, k)
					}
				}
			}
			if r.len() != len(ref) {
				t.Fatalf("span %d step %d: len %d, map %d", span, step, r.len(), len(ref))
			}
		}
		var n int
		last := sim.Never
		r.each(func(c sim.Cycle, v int) {
			if c <= last || ref[c] != v {
				t.Fatalf("span %d: each out of order or wrong at %d", span, c)
			}
			last = c
			n++
		})
		if n != len(ref) {
			t.Fatalf("span %d: each visited %d of %d", span, n, len(ref))
		}
	}
}

// TestCycleRingLateSlideMatchesEveryCycleSlide: a ring holding live entries
// slid through k cycles one at a time and over all of them at once keeps the
// same entries under the same cycles, for k from one cycle to past the span.
func TestCycleRingLateSlideMatchesEveryCycleSlide(t *testing.T) {
	const span = 10
	rng := sim.NewRNG(78)
	for round := 0; round < 300; round++ {
		start := sim.Cycle(rng.Intn(40))
		for _, k := range []sim.Cycle{1, span - 1, span, span + 3} {
			fill := sim.NewRNG(uint64(round) + 1)
			var rings [2]cycleRing[int]
			for i := range rings {
				rings[i] = newCycleRing[int](span)
				rings[i].advance(start)
			}
			for c := start; c < start+span; c++ {
				if fill.Bool(0.5) {
					rings[0].put(c, int(c))
					rings[1].put(c, int(c))
				}
			}
			step, jump := &rings[0], &rings[1]
			for c := start + 1; c <= start+k; c++ {
				step.advance(c)
			}
			jump.advance(start + k)
			if step.base != jump.base || step.live != jump.live || (k < span && step.baseIdx != jump.baseIdx) {
				t.Fatalf("round %d slide %d: base/baseIdx/live %d/%d/%d stepwise, %d/%d/%d in one jump",
					round, k, step.base, step.baseIdx, step.live, jump.base, jump.baseIdx, jump.live)
			}
			for c := step.base; c < step.base+span; c++ {
				sv, sok := step.get(c)
				jv, jok := jump.get(c)
				if sv != jv || sok != jok {
					t.Fatalf("round %d slide %d: cycle %d holds %d,%v stepwise, %d,%v in one jump", round, k, c, sv, sok, jv, jok)
				}
			}
		}
	}
}

// TestCycleRingSlideMatchesAdvance: for an owner that takes every entry on its
// own cycle, sliding the window (indices only) starts it where advance would,
// over gaps from one cycle to several spans, and every cycle of it takes a
// put and gives it back alike. (The cell a window starts at may differ: a jump
// past the whole span restarts advance's at cell 0.)
func TestCycleRingSlideMatchesAdvance(t *testing.T) {
	slid, advanced := newCycleRing[int](7), newCycleRing[int](7)
	now := sim.Cycle(0)
	for i, gap := range []sim.Cycle{1, 1, 3, 6, 7, 8, 13, 1, 50, 2, 700, 5} {
		now += gap
		slid.slide(now)
		advanced.advance(now)
		if slid.base != advanced.base {
			t.Fatalf("step %d: slide started the window at %d, advance at %d", i, slid.base, advanced.base)
		}
		for _, r := range []*cycleRing[int]{&slid, &advanced} {
			for c := now; c < now+7; c++ {
				if !r.put(c, int(c)) {
					t.Fatalf("step %d: put at cycle %d refused", i, c)
				}
			}
			for c := now; c < now+7; c++ {
				if v, ok := r.take(c); !ok || v != int(c) {
					t.Fatalf("step %d: take(%d) = %d, %v", i, c, v, ok)
				}
			}
		}
	}
	slid.slide(now - 3) // backwards: no-op
	if slid.base != now {
		t.Fatalf("sliding backwards moved the window to %d", slid.base)
	}
}
