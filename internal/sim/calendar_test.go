package sim

import (
	"slices"
	"strings"
	"testing"
)

// TestCalendarRingAndRearm: a calendar is the next power of two above its
// reach, its words wrap by the cycle's low bits, and Rearm clamps a head
// beyond the reach to the calendar's last cycle.
func TestCalendarRingAndRearm(t *testing.T) {
	for reach, want := range map[Cycle]int{1: 2, 3: 4, 4: 8, 7: 8, 64: 128} {
		if got := CalendarCells(reach); got != want {
			t.Errorf("CalendarCells(%d) = %d, want %d", reach, got, want)
		}
	}
	c := make(Calendar, CalendarCells(4))
	c.Arm(13, 1)
	if *c.Cell(5) != 1 || *c.Cell(13) != 1 {
		t.Fatalf("cycles 5 and 13 share a word: got %#x and %#x", *c.Cell(5), *c.Cell(13))
	}
	c.Rearm(10, 30, 2) // beyond reach: the last cycle, 17
	if *c.Cell(17)&2 == 0 {
		t.Fatalf("Rearm past the reach did not arm the last cycle: %v", c)
	}
	c.Rearm(10, 12, 4)
	if *c.Cell(12)&4 == 0 {
		t.Fatalf("Rearm within reach did not arm its cycle: %v", c)
	}
}

// TestCalendarAudit: the audit passes an exact calendar and one that fires
// early, and names each breach — a word left set, a bit missing, a bit late,
// a bit armed for an empty wire.
func TestCalendarAudit(t *testing.T) {
	const now = 20
	type wire struct {
		bit     uint32
		at      Cycle
		carries bool
	}
	for _, tc := range []struct {
		name  string
		armed map[Cycle]uint32
		wires []wire
		want  string
	}{
		{"exact", map[Cycle]uint32{23: 1, 21: 2}, []wire{{1, 23, true}, {2, 21, true}, {4, 0, false}}, ""},
		{"early", map[Cycle]uint32{22: 1}, []wire{{1, 25, true}}, ""},
		{"beyond reach", map[Cycle]uint32{27: 1}, []wire{{1, 90, true}}, ""},
		{"word left set", map[Cycle]uint32{now: 8}, nil, "still holds 0x8"},
		{"missing", nil, []wire{{2, 22, true}}, "bit 1: head due at cycle 22, bit not armed"},
		{"late", map[Cycle]uint32{24: 2}, []wire{{2, 22, true}}, "bit 1: head due at cycle 22, bit armed first at 24"},
		{"empty wire", map[Cycle]uint32{24: 4}, []wire{{4, 0, false}}, "bit 2 armed at cycle 24 for a wire that carries nothing"},
	} {
		c := make(Calendar, CalendarCells(7))
		for at, bits := range tc.armed {
			c.Arm(at, bits)
		}
		err := c.Audit(now, func(fn func(uint32, Cycle, bool)) {
			for _, w := range tc.wires {
				fn(w.bit, w.at, w.carries)
			}
		})
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: got %v, want %q", tc.name, err, tc.want)
		}
	}
}

// TestPipeWakesItsReceiver: a pipe bound with Wakes arms its bit at the cycle
// an item sent now is due — once for a cycle's worth of sends — and nothing
// while severed; after a replay its Rearm arms the head's delivery cycle, or
// the calendar's last cycle for a head beyond its reach; an unbound pipe arms
// nothing.
func TestPipeWakesItsReceiver(t *testing.T) {
	const bit = 1 << 5
	// armedAt lists the cycles from..from+len(c)-1 whose words hold anything,
	// and fails unless each holds bit alone.
	armedAt := func(c Calendar, from Cycle) []Cycle {
		t.Helper()
		var at []Cycle
		for t0 := from; t0 < from+Cycle(len(c)); t0++ {
			switch w := *c.Cell(t0); w {
			case 0:
			case bit:
				at = append(at, t0)
			default:
				t.Fatalf("cycle %d's word holds %#x, want %#x or nothing", t0, w, bit)
			}
		}
		return at
	}
	cal := make(Calendar, CalendarCells(8))
	p := NewPipe[int](3, 2).Wakes(&cal, bit)
	p.Send(10, 1)
	p.Send(10, 2)
	if got := armedAt(cal, 10); !slices.Equal(got, []Cycle{13}) {
		t.Fatalf("two sends at cycle 10 over a 3-cycle wire armed %v, want [13]", got)
	}
	clear(cal)
	p.Sever(nil)
	p.Send(11, 3)
	if got := armedAt(cal, 11); len(got) != 0 {
		t.Fatalf("a send on a severed wire armed %v", got)
	}
	p.Restore()

	// replayed returns a bound 1-cycle pipe on c with one item sent at
	// cycle 0 and replayed by its fault model to a cycle accept takes.
	replayed := func(c *Calendar, rate float64, accept func(Cycle) bool) *Pipe[int] {
		for seed := uint64(1); seed < 1000; seed++ {
			q := NewPipe[int](1, 1).WithFaults(rate, NewRNG(seed)).Wakes(c, bit)
			q.Send(0, 7)
			if at, _ := q.HeadAt(); accept(at) {
				return q
			}
		}
		t.Fatal("no seed replays the item as wanted")
		return nil
	}
	cal = make(Calendar, CalendarCells(16))
	q := replayed(&cal, 0.5, func(at Cycle) bool { return at > 1 && at < 16 })
	if got := armedAt(cal, 0); !slices.Equal(got, []Cycle{1}) {
		t.Fatalf("a replayed send armed %v, want [1], the cycle it was due without the replay", got)
	}
	clear(cal)
	if _, ok := q.Recv(1); ok {
		t.Fatal("the replayed item arrived on time")
	}
	q.Rearm(1)
	if at, _ := q.HeadAt(); !slices.Equal(armedAt(cal, 1), []Cycle{at}) {
		t.Fatalf("Rearm after the replay armed %v, want [%d], the head's cycle", armedAt(cal, 1), at)
	}

	cal = make(Calendar, CalendarCells(4))
	q = replayed(&cal, 0.95, func(at Cycle) bool { return at > 1+8 })
	clear(cal)
	q.Rearm(1)
	if got := armedAt(cal, 1); !slices.Equal(got, []Cycle{8}) {
		t.Fatalf("Rearm of a head beyond the reach armed %v, want [8], the calendar's last cycle", got)
	}

	// An unbound pipe has no calendar to arm: its Send and Rearm reach none.
	u := NewPipe[int](2, 1)
	u.Send(0, 1)
	u.Rearm(1)
	if at, ok := u.HeadAt(); !ok || at != 2 {
		t.Fatalf("an unbound pipe's head is due at %d (%v), want 2", at, ok)
	}
}
