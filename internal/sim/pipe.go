package sim

import (
	"fmt"
	"math"
	"math/bits"
)

// MaxPipeLatency is the longest latency a pipe may have: its slots, one a
// cycle, must fit the word that says which of them hold something.
const MaxPipeLatency = 63

// Pipe is a bandwidth-limited delay line modeling a pipelined wire between
// two components. Items sent at cycle t fall due at cycle t+latency. At most
// width items may be sent per cycle, which models the per-cycle bandwidth of
// the physical channel (one wide data flit per cycle on a data link; two
// narrow control flits per cycle on a control link in the paper's
// configuration).
//
// A wire knows when each item it carries arrives, as the paper's router knows
// each data flit's arrival cycle, and keeps its items by that cycle: its ring
// is a row of arrival slots, one a cycle, indexed by the cycle's low bits, and
// each slot has width cells. Send writes into the slot for now+latency; the
// receiver reads a wire on each cycle its items fall due, and Take(now) hands
// it that cycle's slot, the items in send order. A wire's receiver must read
// it on every such cycle: a Send into a slot whose items were never taken
// panics.
//
// A Pipe is single-producer single-consumer and not safe for concurrent use;
// the simulation is single-threaded by design.
//
// A pipe bound to its receiver (Wakes) arms the receiver's bit on its due
// calendar beside every item it sends, at the cycle the item is due, so the
// receiver reads the wire when its bit fires and on no other cycle.
//
// A wire with a fault model armed (WithFaults) replays corrupted items,
// delaying them by whole round trips past anything a slot ring reaches, and
// any number of items may pile up behind one. It keeps its items in an
// ordered retransmit buffer instead of slots, and its owner runs its link
// layer once a cycle (Replay), which moves what falls due into the one slot
// Take reads and arms the receiver's bit at that cycle; its Send arms
// nothing. Its receiver takes it like any other wire.
//
// The header is one cache line (64 bytes): what every Send and Take reads
// comes first, and the state of the fault, sever-callback and bit-error
// models — which a fault-free wire never touches — sits behind one pointer,
// nil until a model is armed or the wire is first severed with a drop
// callback.
type Pipe[T any] struct {
	// The arrival slots: mask+1 of them, a power of two above the latency
	// so that the slot a sender fills is never the one its receiver reads
	// this cycle, and the slot for cycle t the width cells from (t&mask)·width.
	// A slot's items run from its first cell to the first whose due cycle is
	// another's: a cell left from an earlier round of the ring is due a whole
	// ring earlier, and Reset clears a ring that carried anything, so no cell
	// outlives a reset. A NewPipe pipe has no slots until its first Send; one
	// cut from a PipeSlab has them from the start. A replaying wire has one
	// slot (mask 0), the whole ring, rewritten by Replay with what falls due,
	// however many.
	ring          []Arrival[T]
	lastSendCycle Cycle
	// live has the bit of every slot holding items not yet taken: what a
	// send checks its slot against, and what Take reads first. A taken
	// slot's cells keep their items, which Take handed out, until a send
	// fills the slot again or the pipe is reset.
	live uint64

	width, sentThisCycle uint16
	latency, mask        uint8

	// bit is the index of the wire's bit on cal, the receiver's due calendar;
	// cal is nil for a pipe bound to no receiver, which arms nothing.
	bit uint8

	// Hard-fault state (Sever/Restore). A severed pipe models a dead wire:
	// items already in flight are destroyed at sever time and every
	// subsequent Send is discarded (through the drop callback when set)
	// instead of sent. Senders keep their normal bandwidth accounting so
	// model bugs still surface while a link is down.
	severed bool

	x   *pipeFaults[T]
	cal *Calendar
}

// Arrival is one cell of a wire: an item and the cycle it falls due. Take
// returns the cells of a slot; the receiver reads their Item.
type Arrival[T any] struct {
	Item T
	due  Cycle
}

// pipeFaults is the cold state of a pipe: the models a fault-free wire never
// arms.
type pipeFaults[T any] struct {
	// Fault-injection state (WithFaults). Each item sent is corrupted
	// in flight with probability faultRate; the receiver detects the
	// corruption, NACKs, and the sender — which holds every unacknowledged
	// item in a retransmit buffer — replays it, adding one link round-trip
	// (2×latency) per corruption. Replay is go-back-N: items behind a
	// corrupted one are delivered no earlier than it, so FIFO order is
	// preserved and the receiver never has to reorder.
	faultRate   float64
	rng         *RNG
	retransmits int64
	// backlog is a replaying wire's retransmit buffer: the items in flight
	// that Replay has not yet moved to the slot, oldest first, each with the
	// cycle it falls due.
	backlog []Arrival[T]

	// onDrop is told of every item a severed wire destroys.
	onDrop func(T)

	// Bit-error state (WithBitErrors). Distinct from faultRate above: a bit
	// error does not delay or drop the item — it is delivered on time,
	// transformed by corruptFn (which marks it corrupted), modeling residual
	// errors that escape the link layer and must be caught by higher-level
	// CRC or end-to-end checks.
	ber       float64
	berRNG    *RNG
	corruptFn func(T) T
	corrupted int64
}

// faults returns the pipe's cold block, made on first use.
func (p *Pipe[T]) faults() *pipeFaults[T] {
	if p.x == nil {
		p.x = new(pipeFaults[T])
	}
	return p.x
}

// replays reports whether the pipe keeps its items in a retransmit buffer.
func (p *Pipe[T]) replays() bool { return p.x != nil && p.x.faultRate > 0 }

// NewPipe returns a pipe with the given latency (cycles, from 1 — so that
// same-cycle delivery, which would make component tick order matter, is
// impossible — to MaxPipeLatency) and width (items per cycle, must be >= 1).
// Its slots are made at its first Send.
func NewPipe[T any](latency Cycle, width int) *Pipe[T] {
	p := new(Pipe[T])
	p.init(latency, width, nil)
	return p
}

// init builds a pipe in place around the ring its caller found for it.
func (p *Pipe[T]) init(latency Cycle, width int, ring []Arrival[T]) {
	if latency < 1 || latency > MaxPipeLatency {
		panic(fmt.Sprintf("sim: pipe latency must lie in [1, %d] cycles", MaxPipeLatency))
	}
	if width < 1 || width > math.MaxUint16 {
		panic("sim: pipe width must lie in [1, 65535] items per cycle")
	}
	*p = Pipe[T]{ring: ring, lastSendCycle: Never, width: uint16(width), latency: uint8(latency), mask: uint8(1<<bits.Len(uint(latency)) - 1)}
}

// PipeSlab is the memory of every pipe of one item type that a network
// holds: the structs in one array and their rings in another, so that wiring
// a mesh allocates twice per item type, not twice per wire. Pipes are cut off
// it in the order they are asked for.
type PipeSlab[T any] struct {
	pipes []Pipe[T]
	cells []Arrival[T]
}

// NewPipeSlab returns room for the given number of pipes whose rings, each
// RingCells long, come to cells cells in all.
func NewPipeSlab[T any](pipes, cells int) PipeSlab[T] {
	return PipeSlab[T]{pipes: make([]Pipe[T], pipes), cells: make([]Arrival[T], cells)}
}

// RingCells is the ring of a wire of the given latency and width: width cells
// for each of its arrival slots, one for each cycle from the one its receiver
// reads to the one a send fills, rounded up to a power of two.
func RingCells(latency Cycle, width int) int { return 1 << bits.Len(uint(latency)) * width }

// New is NewPipe on the slab's memory, its slots there from the start.
func (s *PipeSlab[T]) New(latency Cycle, width int) *Pipe[T] {
	p, n := &s.pipes[0], RingCells(latency, width)
	p.init(latency, width, s.cells[:n:n])
	s.pipes, s.cells = s.pipes[1:], s.cells[n:]
	return p
}

// Left counts the pipes and cells not yet cut.
func (s *PipeSlab[T]) Left() int { return len(s.pipes) + len(s.cells) }

// Reset returns the pipe to its just-built state: nothing in flight, no send
// recorded this cycle or any other, the wire whole, and the fault counters at
// zero. What the pipe was built and armed with — latency, width, fault and
// bit-error rates with their generators and callbacks — stays, and so do its
// slots, cleared of what they held if the pipe has carried anything since it
// was last reset, so that an idle wire keeps no item alive.
func (p *Pipe[T]) Reset() {
	if p.lastSendCycle != Never {
		clear(p.ring)
	}
	p.live, p.sentThisCycle, p.lastSendCycle = 0, 0, Never
	p.severed = false
	if x := p.x; x != nil {
		clear(x.backlog)
		x.backlog = x.backlog[:0]
		x.onDrop = nil
		x.retransmits, x.corrupted = 0, 0
	}
}

// Wakes binds the pipe to its receiver: bit, which must be a single bit, on
// the due calendar *cal. From then on every Send arms bit at the cycle the
// item falls due — on a replaying wire, Replay at the cycle it moves items
// into the slot. cal is read at each arm, so it may point at a calendar field
// its owner sets later. It returns the pipe.
func (p *Pipe[T]) Wakes(cal *Calendar, bit uint32) *Pipe[T] {
	if bits.OnesCount32(bit) != 1 {
		panic("sim: a pipe wakes its receiver on exactly one calendar bit")
	}
	p.cal, p.bit = cal, uint8(bits.TrailingZeros32(bit))
	return p
}

// WithFaults arms a corruption-and-replay model on a pipe already built,
// before it carries anything, and returns it. Each item is corrupted in
// flight with probability rate and recovered by link-level
// detection-and-retransmission: the receiver detects the corrupted item,
// returns a NACK, and the sender replays from its retransmit buffer, costing
// one link round-trip (2×latency) per corruption. An item may be corrupted
// again on replay, so its total delay is latency + 2·latency·k for a
// geometrically distributed k. Delivery remains FIFO (go-back-N), so no item
// overtakes a retransmitting predecessor; Retransmits counts the corruption
// events. rate must lie in [0,1) and rng must be non-nil when rate > 0.
func (p *Pipe[T]) WithFaults(rate float64, rng *RNG) *Pipe[T] {
	if rate < 0 || rate >= 1 || rate != rate {
		panic("sim: fault rate must lie in [0, 1)")
	}
	if rate > 0 && rng == nil {
		panic("sim: faulty pipe needs an RNG")
	}
	if !p.Empty() {
		panic("sim: fault model armed on a pipe with items in flight")
	}
	x := p.faults()
	x.faultRate, x.rng = rate, rng
	if rate > 0 {
		p.mask = 0
		p.ring = p.ring[:0]
	}
	return p
}

// Retransmits reports how many corruption-and-replay events the pipe's
// link-level recovery has performed.
func (p *Pipe[T]) Retransmits() int64 {
	if p.x == nil {
		return 0
	}
	return p.x.retransmits
}

// WithBitErrors arms the pipe's bit-error model: each item sent is delivered
// on time but passed through corrupt — which should mark it corrupted — with
// probability ber. This is the corruption mode distinct from loss: the wire
// still delivers, the payload is wrong, and it is the receiver's CRC or the
// end-to-end check that must notice. ber must lie in [0,1); rng and corrupt
// must be non-nil when ber > 0. It returns the pipe for chaining and composes
// with the loss/delay fault model of WithFaults.
func (p *Pipe[T]) WithBitErrors(ber float64, rng *RNG, corrupt func(T) T) *Pipe[T] {
	if ber < 0 || ber >= 1 || ber != ber {
		panic("sim: bit-error rate must lie in [0, 1)")
	}
	if ber > 0 && (rng == nil || corrupt == nil) {
		panic("sim: bit-error pipe needs an RNG and a corrupting transform")
	}
	x := p.faults()
	x.ber, x.berRNG, x.corruptFn = ber, rng, corrupt
	return p
}

// SetBitErrorRate retunes the bit-error probability mid-run (scenario
// "corrupt" events). The pipe must already have been armed by WithBitErrors
// so the RNG draw order stays a pure function of the fault schedule.
func (p *Pipe[T]) SetBitErrorRate(ber float64) {
	if ber < 0 || ber >= 1 || ber != ber {
		panic("sim: bit-error rate must lie in [0, 1)")
	}
	if ber > 0 && (p.x == nil || p.x.berRNG == nil || p.x.corruptFn == nil) {
		panic("sim: SetBitErrorRate on a pipe never armed with WithBitErrors")
	}
	if p.x != nil {
		p.x.ber = ber
	}
}

// Corrupted reports how many items the bit-error model has delivered
// corrupted.
func (p *Pipe[T]) Corrupted() int64 {
	if p.x == nil {
		return 0
	}
	return p.x.corrupted
}

// slot returns the index of cycle t's arrival slot and the slot's bit in
// live.
func (p *Pipe[T]) slot(t Cycle) (uint, uint64) {
	i := uint(t) & uint(p.mask) & 63
	return i, 1 << i
}

// cells returns the cells from the first of slot i to the end of the ring.
func (p *Pipe[T]) cells(i uint) []Arrival[T] { return p.ring[i*uint(p.width):] }

// untaken panics for a send at cycle now into the slot still holding the
// items due at cycle at.
func untaken(now, at Cycle) {
	panic(fmt.Sprintf("sim: send at cycle %d into the arrival slot still holding the items due at cycle %d: the wire's receiver did not take them", now, at))
}

// CanSend reports whether another item may be sent during cycle now without
// exceeding the pipe's bandwidth.
func (p *Pipe[T]) CanSend(now Cycle) bool {
	return p.lastSendCycle != now || p.sentThisCycle < p.width
}

// Send sends an item at cycle now into the slot of cycle now+latency, and a
// bound pipe arms its receiver's bit at that cycle; a replaying wire holds the
// item back for its Replay instead. It panics if the per-cycle bandwidth is
// exceeded, if time runs backwards, or if the slot still holds items its
// receiver never took, all of which indicate a bug in the calling model
// rather than a recoverable condition.
func (p *Pipe[T]) Send(now Cycle, item T) {
	// The common case first: a whole wire with its slots made, no fault or
	// bit-error model ever armed, and room left in this cycle's bandwidth.
	// The first send of a cycle checks and claims its slot and wakes the
	// receiver; a later one writes the next cell.
	if p.x != nil || p.severed || p.ring == nil || now < p.lastSendCycle || now == p.lastSendCycle && p.sentThisCycle >= p.width {
		p.send(now, now+Cycle(p.latency), item)
		return
	}
	due := now + Cycle(p.latency)
	i := uint(due) & uint(p.mask) & 63
	w, k := uint(p.width), uint(0)
	if now == p.lastSendCycle {
		k = uint(p.sentThisCycle)
	} else {
		if p.live>>i&1 != 0 {
			untaken(now, due-Cycle(p.mask)-1)
		}
		p.live |= 1 << i
		p.lastSendCycle = now
		p.wake(due)
	}
	p.sentThisCycle = uint16(k + 1)
	c := &p.ring[i*w+k]
	c.Item, c.due = item, due
}

// send is Send off its common case: a send past the cycle's bandwidth or back
// in time, a severed wire, a fault or bit-error model armed, or slots not yet
// made.
func (p *Pipe[T]) send(now, due Cycle, item T) {
	if p.lastSendCycle == now {
		if p.sentThisCycle >= p.width {
			panic("sim: pipe bandwidth exceeded")
		}
		p.sentThisCycle++
	} else {
		if p.lastSendCycle != Never && now < p.lastSendCycle {
			panic("sim: pipe send time went backwards")
		}
		p.lastSendCycle = now
		p.sentThisCycle = 1
	}
	x := p.x
	if p.severed {
		if x != nil && x.onDrop != nil {
			x.onDrop(item)
		}
		return
	}
	if x != nil && x.ber > 0 && x.berRNG.Bool(x.ber) {
		item = x.corruptFn(item)
		x.corrupted++
	}
	if x == nil || x.faultRate == 0 {
		p.wake(due)
		if p.ring == nil {
			p.ring = make([]Arrival[T], RingCells(Cycle(p.latency), int(p.width)))
		}
		p.fill(due, item)
		return
	}
	for x.rng.Bool(x.faultRate) {
		due += 2 * Cycle(p.latency)
		x.retransmits++
	}
	// Go-back-N: an item sent behind a retransmitting predecessor is held in
	// the sender's retransmit buffer and replayed after it, so delivery stays
	// FIFO.
	if k := len(x.backlog); k > 0 && x.backlog[k-1].due > due {
		due = x.backlog[k-1].due
	}
	x.backlog = append(x.backlog, Arrival[T]{item, due})
}

// fill writes item, due at cycle due, into its slot behind what this cycle's
// sends have put there.
func (p *Pipe[T]) fill(due Cycle, item T) {
	i, bit := p.slot(due)
	s, k := p.cells(i), int(p.sentThisCycle)-1
	if k == 0 {
		if p.live&bit != 0 {
			untaken(p.lastSendCycle, due-Cycle(p.mask)-1)
		}
		p.live |= bit
	}
	s[k] = Arrival[T]{item, due}
}

// wake arms the receiver's bit at cycle t.
func (p *Pipe[T]) wake(t Cycle) {
	if p.cal != nil {
		p.cal.Arm(t, 1<<(p.bit&31))
	}
}

// Take returns the items that fall due at cycle now, in send order, and frees
// their slot: a receiver calls it on each cycle its wire's bit fires, and
// reads each cell's Item before the cycle ends.
func (p *Pipe[T]) Take(now Cycle) []Arrival[T] {
	i := uint(now) & uint(p.mask) & 63
	if p.live>>i&1 == 0 {
		return nil
	}
	p.live ^= 1 << i
	w := uint(p.width)
	if p.mask == 0 { // a replaying wire's one slot is the whole ring
		w = uint(len(p.ring))
	}
	s, k := p.ring[i*w:], uint(1)
	for k < w && s[k].due == now {
		k++
	}
	return s[:k]
}

// Replay runs a replaying wire's link layer for cycle now: it moves the items
// that fall due out of the retransmit buffer into the slot Take reads and
// arms the receiver's bit at now. The owner of a replaying wire calls it once
// a cycle before the wire's receiver ticks; on any other wire it does
// nothing.
func (p *Pipe[T]) Replay(now Cycle) {
	if !p.replays() {
		return
	}
	if p.live != 0 {
		panic(fmt.Sprintf("sim: replay at cycle %d over items the wire's receiver never took", now))
	}
	x := p.x
	k := 0
	for k < len(x.backlog) && x.backlog[k].due <= now {
		x.backlog[k].due = now
		k++
	}
	if k == 0 {
		return
	}
	clear(p.ring)
	p.ring, p.live = append(p.ring[:0], x.backlog[:k]...), 1
	left := copy(x.backlog, x.backlog[k:])
	clear(x.backlog[left:])
	x.backlog = x.backlog[:left]
	p.wake(now)
}

// Recv takes the one item due at cycle now on a wire one item wide that does
// not replay; ok is false when there is none. It is Take for a wire whose
// slots hold one item, and panics on any other.
func (p *Pipe[T]) Recv(now Cycle) (item T, ok bool) {
	if p.width != 1 || p.replays() {
		panic("sim: Recv reads a wire one item wide that does not replay; take the slot with Take")
	}
	if s := p.Take(now); len(s) > 0 {
		return s[0].Item, true
	}
	return item, false
}

// Arrivals calls fn with bit and each cycle something in the wire's arrival
// slots falls due, earliest first, or once with Never when they hold nothing:
// the cycles a bound wire arms its bit at, as Calendar.Audit walks them. What
// a replaying wire holds back in its retransmit buffer is in no slot until its
// Replay moves it there, and armed at no cycle before then.
func (p *Pipe[T]) Arrivals(bit uint32, fn func(bit uint32, at Cycle)) {
	if p.live == 0 {
		fn(bit, Never)
		return
	}
	newest := p.newest()
	for t := newest - Cycle(p.mask); t <= newest; t++ {
		if _, b := p.slot(t); p.live&b != 0 {
			fn(bit, t)
		}
	}
}

// newest is the cycle of the latest slot that holds items, when any does: the
// one the last send filled, or a replaying wire's one slot.
func (p *Pipe[T]) newest() Cycle {
	if p.replays() {
		return p.ring[0].due
	}
	return p.lastSendCycle + Cycle(p.latency)
}

// Empty reports whether nothing is in flight.
func (p *Pipe[T]) Empty() bool { return p.live == 0 && (p.x == nil || len(p.x.backlog) == 0) }

// Each visits every in-flight item in FIFO order without consuming it; it
// exists for invariant checkers that audit conservation across a link.
func (p *Pipe[T]) Each(fn func(T)) {
	p.each(func(c *Arrival[T]) { fn(c.Item) })
}

// each visits the cells of the items in flight in the order Take would return
// them: the slots holding items, from the oldest a send can still be waiting
// in to the one the last send filled — a replaying wire's one slot — then the
// retransmit buffer.
func (p *Pipe[T]) each(fn func(*Arrival[T])) {
	if p.live != 0 {
		newest := p.newest()
		for t := newest - Cycle(p.mask); t <= newest; t++ {
			i, bit := p.slot(t)
			if p.live&bit == 0 {
				continue
			}
			s := p.cells(i)
			for j := 0; j < len(s) && (j == 0 || s[j].due == t); j++ {
				fn(&s[j])
			}
		}
	}
	if p.x != nil {
		for i := range p.x.backlog {
			fn(&p.x.backlog[i])
		}
	}
}

// Sever cuts the wire: everything in flight is destroyed — each destroyed
// item is reported to onDrop when non-nil — and every Send until Restore is
// likewise discarded. Severing an already-severed pipe only replaces the
// drop callback.
func (p *Pipe[T]) Sever(onDrop func(T)) {
	if onDrop != nil || p.x != nil {
		p.faults().onDrop = onDrop
	}
	if p.severed {
		return
	}
	p.severed = true
	p.each(func(c *Arrival[T]) {
		if onDrop != nil {
			onDrop(c.Item)
		}
		*c = Arrival[T]{due: Never}
	})
	p.live = 0
	if p.x != nil {
		p.x.backlog = p.x.backlog[:0]
	}
}

// Restore repairs a severed wire; the pipe resumes carrying items. Items
// destroyed while it was down stay destroyed.
func (p *Pipe[T]) Restore() {
	p.severed = false
	if p.x != nil {
		p.x.onDrop = nil
	}
}

// Severed reports whether the pipe is currently cut.
func (p *Pipe[T]) Severed() bool { return p.severed }
