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
// ring always holds the cycles from now on. A bit is armed at cycle t exactly
// when its wire or input has something due at t, and at no other cycle: a
// wire's Send arms the cycle its item falls due, and its receiver takes that
// cycle's slot (Pipe.Take) when the bit fires. A replaying wire is no
// exception: its Send arms nothing, since an item a replay delays may fall due
// past the calendar's reach, and its link layer (Pipe.Replay) arms the cycle
// it moves items into the slot, before the receiver ticks.
//
// Cell and Arm are small enough to inline, and must stay so: each is called
// per wire per cycle on every fabric's hot path.
type Calendar []uint32

// CalendarCells is the length of a calendar that must reach reach cycles
// ahead: the next power of two above it.
func CalendarCells(reach Cycle) int { return 1 << bits.Len(uint(reach)) }

// Cell returns the word for cycle t.
func (c Calendar) Cell(t Cycle) *uint32 { return &c[int(t)&(len(c)-1)] }

// Arm sets bits in the word for cycle t, which must lie within the calendar's
// reach of the current cycle.
func (c Calendar) Arm(t Cycle, bits uint32) { *c.Cell(t) |= bits }

// Audit checks the calendar at the end of cycle now, once every component
// that reads it has ticked, against what falls due. walk calls due with a bit
// and each cycle something the bit stands for falls due at, and once with
// Never for a bit with nothing due (Pipe.Arrivals walks a wire so). The word
// for now must be clear, and every bit walk names must be armed at exactly
// the cycles it reports, all between now+1 and the calendar's last cycle: a
// bit missing would leave an item unread on its cycle, one armed with nothing
// due wakes its receiver for nothing. Bits walk never names are not looked
// at. It reports the first breach, nil if there is none.
func (c Calendar) Audit(now Cycle, walk func(due func(bit uint32, at Cycle))) error {
	if w := *c.Cell(now); w != 0 {
		return fmt.Errorf("the calendar word for cycle %d still holds %#x after the tick", now, w)
	}
	last := now + Cycle(len(c)) - 1
	want, named := make(Calendar, len(c)), uint32(0)
	var err error
	walk(func(bit uint32, at Cycle) {
		named |= bit
		switch {
		case at == Never || err != nil:
		case at <= now || at > last:
			err = fmt.Errorf("bit %d: an item falls due at cycle %d, outside cycles %d to %d", bits.TrailingZeros32(bit), at, now+1, last)
		default:
			want.Arm(at, bit)
		}
	})
	if err != nil {
		return err
	}
	for t := now + 1; t <= last; t++ {
		got, due := *c.Cell(t)&named, *want.Cell(t)
		if miss := due &^ got; miss != 0 {
			return fmt.Errorf("bit %d: an item falls due at cycle %d, bit not armed there", bits.TrailingZeros32(miss), t)
		}
		if stale := got &^ due; stale != 0 {
			return fmt.Errorf("bit %d armed at cycle %d with nothing due then", bits.TrailingZeros32(stale), t)
		}
	}
	return nil
}
