package sim

import (
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
