package sim

import (
	"fmt"
	"math/bits"
)

// Calendar is a node's due calendar: the schedule the paper's router keeps in
// its input reservation table, turned into one word per cycle. The word for
// cycle t has a bit for everything the node's components must act on at t,
// and each component reads the word for its cycle, clears its own bits and
// acts on them alone: a wire is read when something on it falls due, and not
// otherwise. Which bit names what is the fabric's to say; a bit is typically
// one wire, bound to it when the fabric wires the node (Pipe.Wakes), and armed
// by the wire's Send at the cycle the item is delivered.
//
// The words form a ring indexed by the cycle's low bits, a power of two long
// and longer than anything is ever armed ahead (CalendarCells); the word for a
// cycle is clear once every component of the node has ticked at it, so the
// ring always holds the cycles from now on. A wire's bit fires on each cycle
// something on it falls due, since its Send armed that cycle, and its receiver
// takes that cycle's slot (Pipe.Take). Only a replaying wire's bit may fire
// early, never late: an item a replay delayed, perhaps past the calendar's
// reach, is armed again at its delivery cycle by the wire's own link layer
// (Pipe.Replay, over Rearm), so there a bit is a prompt to look, and what is
// found decides.
//
// The methods are small enough to inline, and must stay so: each is called per
// wire per cycle on every fabric's hot path.
type Calendar []uint32

// CalendarCells is the length of a calendar that must reach reach cycles
// ahead: the next power of two above it.
func CalendarCells(reach Cycle) int { return 1 << bits.Len(uint(reach)) }

// Cell returns the word for cycle t.
func (c Calendar) Cell(t Cycle) *uint32 { return &c[int(t)&(len(c)-1)] }

// Arm sets bits in the word for cycle t, which must lie within the calendar's
// reach of the current cycle.
func (c Calendar) Arm(t Cycle, bits uint32) { *c.Cell(t) |= bits }

// Rearm arms bits for a wire whose head falls due at cycle t, read at cycle
// now; a head beyond the calendar's reach is armed at its last cycle, to be
// armed again from there.
func (c Calendar) Rearm(now, t Cycle, bits uint32) {
	if last := now + Cycle(len(c)) - 1; t > last {
		t = last
	}
	c.Arm(t, bits)
}

// Audit checks the calendar at the end of cycle now, once every component
// that reads it has ticked, against the wires it names. wires calls its
// argument once a wire: the wire's bit, and — when it carries something —
// its head's delivery cycle. The word for now must be clear, and a wire's bit
// must be armed iff the wire carries something, first between now+1 and its
// head's delivery cycle (the calendar's last cycle, for a head beyond its
// reach): a bit missing or late would leave an item unread on its cycle, one
// armed for an empty wire wakes its receiver for nothing. Bits no wire names
// are not looked at. It reports the first breach, nil if there is none.
func (c Calendar) Audit(now Cycle, wires func(wire func(bit uint32, at Cycle, carries bool))) error {
	if w := *c.Cell(now); w != 0 {
		return fmt.Errorf("the calendar word for cycle %d still holds %#x after the tick", now, w)
	}
	// first[b] is the first cycle bit b is armed at, or Never.
	var first [32]Cycle
	for b := range first {
		first[b] = Never
	}
	last := now + Cycle(len(c)) - 1
	for t := last; t > now; t-- {
		for w := *c.Cell(t); w != 0; w &= w - 1 {
			first[bits.TrailingZeros32(w)] = t
		}
	}
	var err error
	wires(func(bit uint32, at Cycle, carries bool) {
		k := bits.TrailingZeros32(bit)
		switch armed := first[k]; {
		case err != nil:
		case !carries && armed != Never:
			err = fmt.Errorf("bit %d armed at cycle %d for a wire that carries nothing", k, armed)
		case carries && armed == Never:
			err = fmt.Errorf("bit %d: head due at cycle %d, bit not armed", k, at)
		case carries && armed > min(at, last):
			err = fmt.Errorf("bit %d: head due at cycle %d, bit armed first at %d", k, at, armed)
		}
	})
	return err
}
