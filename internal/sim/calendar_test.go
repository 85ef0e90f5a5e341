package sim

import (
	"slices"
	"strings"
	"testing"
)

// TestCalendarRing: a calendar is the next power of two above its reach, and
// its words wrap by the cycle's low bits.
func TestCalendarRing(t *testing.T) {
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
}

// TestCalendarAudit: the audit passes a calendar armed at exactly the cycles
// each named bit has something due, whatever bits nobody names hold, and
// names each breach — a word left set, an arrival unarmed (the second of a
// wire's two among them), a bit armed early, late or for nothing, an item due
// outside the calendar's reach or left untaken.
func TestCalendarAudit(t *testing.T) {
	const now = 20
	type due struct {
		bit uint32
		at  Cycle
	}
	for _, tc := range []struct {
		name  string
		armed map[Cycle]uint32
		due   []due
		want  string
	}{
		{"exact", map[Cycle]uint32{23: 1, 21: 2, 25: 2}, []due{{1, 23}, {2, 21}, {2, 25}, {4, Never}}, ""},
		{"unnamed bits", map[Cycle]uint32{22: 8}, []due{{1, Never}}, ""},
		{"word left set", map[Cycle]uint32{now: 8}, nil, "still holds 0x8"},
		{"missing", nil, []due{{2, 22}}, "bit 1: an item falls due at cycle 22, bit not armed there"},
		{"second arrival unarmed", map[Cycle]uint32{22: 2}, []due{{2, 22}, {2, 24}}, "bit 1: an item falls due at cycle 24, bit not armed there"},
		{"early", map[Cycle]uint32{22: 1}, []due{{1, 25}}, "bit 0 armed at cycle 22 with nothing due then"},
		{"late", map[Cycle]uint32{24: 2}, []due{{2, 22}}, "bit 1: an item falls due at cycle 22, bit not armed there"},
		{"empty wire", map[Cycle]uint32{24: 4}, []due{{4, Never}}, "bit 2 armed at cycle 24 with nothing due then"},
		{"beyond reach", map[Cycle]uint32{27: 1}, []due{{1, 90}}, "bit 0: an item falls due at cycle 90, outside cycles 21 to 27"},
		{"untaken", nil, []due{{1, now}}, "bit 0: an item falls due at cycle 20, outside cycles 21 to 27"},
	} {
		c := make(Calendar, CalendarCells(7))
		for at, bits := range tc.armed {
			c.Arm(at, bits)
		}
		err := c.Audit(now, func(fn func(uint32, Cycle)) {
			for _, d := range tc.due {
				fn(d.bit, d.at)
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

// armedAt lists the cycles from..from+len(c)-1 whose words hold anything, and
// fails unless each holds bit alone.
func armedAt(t *testing.T, c Calendar, from Cycle, bit uint32) []Cycle {
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

// TestPipeWakesItsReceiver: a pipe bound with Wakes arms its bit at the cycle
// an item sent now is due — once for a cycle's worth of sends — and nothing
// while severed; a replaying wire's Send arms nothing, its Replay arms the
// cycle it delivers a delayed item and no cycle before; an unbound pipe arms
// nothing.
func TestPipeWakesItsReceiver(t *testing.T) {
	const bit = 1 << 5
	cal := make(Calendar, CalendarCells(8))
	p := NewPipe[int](3, 2).Wakes(&cal, bit)
	p.Send(10, 1)
	p.Send(10, 2)
	if got := armedAt(t, cal, 10, bit); !slices.Equal(got, []Cycle{13}) {
		t.Fatalf("two sends at cycle 10 over a 3-cycle wire armed %v, want [13]", got)
	}
	clear(cal)
	p.Sever(nil)
	p.Send(11, 3)
	if got := armedAt(t, cal, 11, bit); len(got) != 0 {
		t.Fatalf("a send on a severed wire armed %v", got)
	}
	p.Restore()

	// A 1-cycle wire whose one item is replayed past cycle 1: nothing is
	// armed until Replay moves the item into the slot, at the cycle it is due.
	cal = make(Calendar, CalendarCells(4))
	var q *Pipe[int]
	for seed := uint64(1); q == nil; seed++ {
		if seed == 1000 {
			t.Fatal("no seed replays the item")
		}
		q = NewPipe[int](1, 1).WithFaults(0.5, NewRNG(seed)).Wakes(&cal, bit)
		if q.Send(0, 7); q.Retransmits() == 0 {
			q = nil
		}
	}
	delivered := Never
	for now := Cycle(0); now < 100 && delivered == Never; now++ {
		q.Replay(now)
		switch got := armedAt(t, cal, now, bit); {
		case len(got) == 0:
		case !slices.Equal(got, []Cycle{now}):
			t.Fatalf("cycle %d: the replayed item armed %v, want only the cycle Replay delivers it", now, got)
		default:
			delivered = now
			if a := q.Take(now); len(a) != 1 || a[0].Item != 7 {
				t.Fatalf("cycle %d: took %v, want the replayed item", now, a)
			}
		}
	}
	if want := Cycle(1 + 2*q.Retransmits()); delivered != want {
		t.Fatalf("the replayed item was armed and delivered at cycle %d, want %d", delivered, want)
	}

	// An unbound pipe has no calendar to arm.
	u := NewPipe[int](2, 1)
	u.Send(0, 1)
	if got := u.Take(2); len(got) != 1 {
		t.Fatalf("an unbound pipe delivered %v at cycle 2, want its item", got)
	}
}

// TestReplayWakesItsReceiver: a faulty wire whose link layer runs every cycle
// (Replay) and whose receiver takes it only when its calendar bit fires
// delivers every item on the cycle the slice reference does — piles of more
// than a cycle's width included — and keeps the calendar exact (Audit over
// Arrivals: nothing armed ahead) though replays hold items back past the
// calendar's reach.
func TestReplayWakesItsReceiver(t *testing.T) {
	const bit = 1 << 3
	piled, beyond := false, false
	for seed := uint64(1); seed <= 20; seed++ {
		cal := make(Calendar, CalendarCells(4))
		p := NewPipe[int](2, 2).WithFaults(0.4, NewRNG(seed)).Wakes(&cal, bit)
		ref := &slicePipe{latency: 2, faultRate: 0.4, rng: NewRNG(seed)}
		script, next := NewRNG(seed+100), 1
		for now := Cycle(0); now < 400 || len(ref.q) > 0; now++ {
			p.Replay(now)
			for s := script.Intn(3); now < 300 && s > 0; s-- {
				p.Send(now, next)
				ref.Send(now, next)
				next++
			}
			var got, want []int
			if c := cal.Cell(now); *c&bit != 0 {
				*c &^= bit
				for _, a := range p.Take(now) {
					got = append(got, a.Item)
				}
			}
			for v, ok := ref.Recv(now); ok; v, ok = ref.Recv(now) {
				want = append(want, v)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d cycle %d: took %v, the slice model delivers %v", seed, now, got, want)
			}
			piled = piled || len(got) > 2
			for _, a := range p.x.backlog {
				beyond = beyond || a.due >= now+Cycle(len(cal))
			}
			if err := cal.Audit(now, func(due func(uint32, Cycle)) { p.Arrivals(bit, due) }); err != nil {
				t.Fatalf("seed %d cycle %d: %v", seed, now, err)
			}
		}
	}
	if !piled || !beyond {
		t.Fatalf("the script missed what it is for: a pile wider than the wire %v, an item held beyond the calendar's reach %v", piled, beyond)
	}
}
