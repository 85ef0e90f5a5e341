package core

import (
	"fmt"

	"frfc/internal/sim"
)

// cycleRing maps cycles to values for keys confined to a sliding window
// [base, base+span): the host-side form of the paper's small fixed tables
// indexed by cycle within the scheduling horizon. The span is fixed at
// construction from the configuration (exactly as many cells as the window
// has cycles, wrapped with a compare), and the owner slides the window with
// advance before it files or looks up an entry; an owner with nothing filed
// may leave the window behind and catch up over the gap later.
//
// Every cell carries the cycle it holds. A lookup for a cycle outside the
// window — which would alias some other cycle's cell — therefore reads as
// absent, and an insert outside the window panics instead of overwriting a
// live entry: a key beyond the span means the bound the ring was sized from
// is wrong, which is a model bug. The cycle is kept plus one, so that zeroed
// memory is an empty ring and building one writes nothing.
type cycleRing[T any] struct {
	cells   []ringCell[T]
	base    sim.Cycle // earliest cycle the window admits
	baseIdx int       // index of the cell for cycle base
	live    int       // occupied cells
}

type ringCell[T any] struct {
	key sim.Cycle // one more than the cycle this cell holds; 0 when empty
	v   T
}

// init builds the ring in place over cells, one per cycle of its span and all
// zero.
func (r *cycleRing[T]) init(cells []ringCell[T]) { *r = cycleRing[T]{cells: cells} }

// cell returns the cell cycle c maps to, or nil when c is outside the window.
func (r *cycleRing[T]) cell(c sim.Cycle) *ringCell[T] {
	off := c - r.base
	if off < 0 || off >= sim.Cycle(len(r.cells)) {
		return nil
	}
	i := r.baseIdx + int(off)
	if i >= len(r.cells) {
		i -= len(r.cells)
	}
	return &r.cells[i]
}

// get returns the entry for cycle c.
func (r *cycleRing[T]) get(c sim.Cycle) (v T, ok bool) {
	if cl := r.cell(c); cl != nil && cl.key == c+1 {
		return cl.v, true
	}
	return v, false
}

// put stores v under cycle c and reports false, storing nothing, when the
// cycle already has an entry. A cycle outside the window panics.
func (r *cycleRing[T]) put(c sim.Cycle, v T) bool {
	cl := r.cell(c)
	if cl == nil {
		panic(fmt.Sprintf("core: cycle %d outside the ring window [%d,%d)", c, r.base, r.base+sim.Cycle(len(r.cells))))
	}
	if cl.key != 0 {
		return false
	}
	cl.key, cl.v = c+1, v
	r.live++
	return true
}

// take removes and returns the entry for cycle c.
func (r *cycleRing[T]) take(c sim.Cycle) (v T, ok bool) {
	if cl := r.cell(c); cl != nil && cl.key == c+1 {
		v = cl.v
		*cl = ringCell[T]{}
		r.live--
		return v, true
	}
	return v, false
}

// advance slides the window to start at cycle now, dropping whatever the
// expired cycles still held. Moving backwards is a no-op.
func (r *cycleRing[T]) advance(now sim.Cycle) {
	if now-r.base >= sim.Cycle(len(r.cells)) {
		r.clear()
		r.base, r.baseIdx = now, 0
		return
	}
	for r.base < now {
		if cl := &r.cells[r.baseIdx]; cl.key != 0 {
			*cl = ringCell[T]{}
			r.live--
		}
		r.base++
		if r.baseIdx++; r.baseIdx == len(r.cells) {
			r.baseIdx = 0
		}
	}
}

// slide moves the window to start at cycle now without visiting a cell, for an
// owner that takes every entry on its own cycle, so that the expired cycles
// hold nothing to drop. Moving backwards is a no-op.
func (r *cycleRing[T]) slide(now sim.Cycle) {
	d := now - r.base
	if d <= 0 {
		return
	}
	r.base = now
	if d >= sim.Cycle(len(r.cells)) {
		d %= sim.Cycle(len(r.cells))
	}
	if r.baseIdx += int(d); r.baseIdx >= len(r.cells) {
		r.baseIdx -= len(r.cells)
	}
}

// clear empties the ring without moving its window.
func (r *cycleRing[T]) clear() {
	if r.live != 0 {
		clear(r.cells)
		r.live = 0
	}
}

// reset empties the ring and returns its window to cycle 0, where a new ring
// starts.
func (r *cycleRing[T]) reset() {
	r.clear()
	r.base, r.baseIdx = 0, 0
}

// len reports how many cycles hold an entry.
func (r *cycleRing[T]) len() int { return r.live }

// each visits the entries in ascending cycle order; fn may take the entry it
// is shown.
func (r *cycleRing[T]) each(fn func(c sim.Cycle, v T)) {
	for off := 0; off < len(r.cells) && r.live > 0; off++ {
		if cl := r.cell(r.base + sim.Cycle(off)); cl.key != 0 {
			fn(cl.key-1, cl.v)
		}
	}
}
