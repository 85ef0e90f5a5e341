package sim

import (
	"math"
	"math/bits"
)

// Pipe is a bandwidth-limited delay line modeling a pipelined wire between
// two components. Items sent at cycle t become receivable at cycle t+latency.
// At most width items may be sent per cycle, which models the per-cycle
// bandwidth of the physical channel (one wide data flit per cycle on a data
// link; two narrow control flits per cycle on a control link in the paper's
// configuration).
//
// A Pipe is single-producer single-consumer and not safe for concurrent use;
// the simulation is single-threaded by design.
//
// A pipe bound to its receiver (Wakes) arms the receiver's bit on its due
// calendar beside every item it enqueues, at the cycle the item is due; the
// receiver, once it has read the wire, arms it again at the next item's
// (Rearm).
//
// The header is one cache line (64 bytes): what every Send and Recv reads
// comes first, and the state of the fault, sever-callback and bit-error
// models — which a fault-free wire never touches — sits behind one pointer,
// nil until a model is armed or the wire is first severed with a drop
// callback.
type Pipe[T any] struct {
	// The items in flight, oldest first, in a ring: n cells starting at head,
	// wrapping by mask (cell). len(ring) is a power of two — for NewPipe's
	// pipe nothing until the first Send, then 2 cells, doubled whenever a
	// Send finds it full, so a wire that never holds more than two items
	// never pays for more; for one cut from a PipeSlab what its wire can
	// hold, from the start — and a dequeue moves no other item.
	ring          []pipeEntry[T]
	lastSendCycle Cycle
	head, n       uint32

	latency, width, sentThisCycle uint16

	// bit is the index of the wire's bit on cal, the receiver's due calendar;
	// cal is nil for a pipe bound to no receiver, which arms nothing.
	bit uint8

	// Hard-fault state (Sever/Restore). A severed pipe models a dead wire:
	// items already in flight are destroyed at sever time and every
	// subsequent Send is discarded (through the drop callback when set)
	// instead of enqueued. Senders keep their normal bandwidth accounting so
	// model bugs still surface while a link is down.
	severed bool

	x   *pipeFaults[T]
	cal *Calendar
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

type pipeEntry[T any] struct {
	readyAt Cycle
	item    T
}

// NewPipe returns a pipe with the given latency (cycles, must be >= 1 so
// that same-cycle delivery — which would make component tick order matter —
// is impossible) and width (items per cycle, must be >= 1).
func NewPipe[T any](latency Cycle, width int) *Pipe[T] {
	p := new(Pipe[T])
	p.init(latency, width, nil)
	return p
}

// init builds a pipe in place around the ring its caller found for it.
func (p *Pipe[T]) init(latency Cycle, width int, ring []pipeEntry[T]) {
	if latency < 1 {
		panic("sim: pipe latency must be at least 1 cycle")
	}
	if width < 1 {
		panic("sim: pipe width must be at least 1 item per cycle")
	}
	if latency > math.MaxUint16 || width > math.MaxUint16 {
		panic("sim: pipe latency and width must fit in 16 bits")
	}
	*p = Pipe[T]{latency: uint16(latency), width: uint16(width), ring: ring}
	p.Reset()
}

// PipeSlab is the memory of every pipe of one item type that a network
// holds: the structs in one array and their rings in another, so that wiring
// a mesh allocates twice per item type, not twice per wire. Pipes are cut off
// it in the order they are asked for.
type PipeSlab[T any] struct {
	pipes []Pipe[T]
	cells []pipeEntry[T]
}

// NewPipeSlab returns room for the given number of pipes whose rings, each
// RingCells long, come to cells cells in all.
func NewPipeSlab[T any](pipes, cells int) PipeSlab[T] {
	return PipeSlab[T]{pipes: make([]Pipe[T], pipes), cells: make([]pipeEntry[T], cells)}
}

// RingCells is the ring a slab's pipe starts with: room for what its wire can
// hold at once — a sender that ticks before its receiver has put a cycle's
// width on the wire before the items sent latency cycles ago come off it —
// rounded up to the power of two the ring's mask needs.
func RingCells(latency Cycle, width int) int {
	return 1 << bits.Len(uint((int(latency)+1)*width-1))
}

// New is NewPipe on the slab's memory, the ring at RingCells from the start.
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
// bit-error rates with their generators and callbacks — stays, and so does
// the ring at whatever size the traffic grew it to.
func (p *Pipe[T]) Reset() {
	p.destroy(nil)
	p.sentThisCycle, p.lastSendCycle = 0, Never
	p.severed = false
	if x := p.x; x != nil {
		x.onDrop = nil
		x.retransmits, x.corrupted = 0, 0
	}
}

// Wakes binds the pipe to its receiver: bit, which must be a single bit, on
// the due calendar *cal. From then on every Send that enqueues arms bit at the
// cycle the item would be due without a replay, and Rearm arms it at the
// head's. cal is read at each arm, so it may point at a calendar field its
// owner sets later. It returns the pipe.
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
	if p.n > 0 {
		panic("sim: fault model armed on a pipe with items in flight")
	}
	x := p.faults()
	x.faultRate, x.rng = rate, rng
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

// cell is the ring cell i places behind the oldest item in flight.
func (p *Pipe[T]) cell(i uint32) *pipeEntry[T] {
	return &p.ring[(p.head+i)&uint32(len(p.ring)-1)]
}

// CanSend reports whether another item may be sent during cycle now without
// exceeding the pipe's bandwidth.
func (p *Pipe[T]) CanSend(now Cycle) bool {
	return p.lastSendCycle != now || p.sentThisCycle < p.width
}

// Send enqueues an item at cycle now; it becomes receivable at now+latency,
// and a bound pipe arms its receiver's bit at that cycle. It panics if the
// per-cycle bandwidth is exceeded or if time runs backwards, both of which
// indicate a bug in the calling model rather than a recoverable condition.
func (p *Pipe[T]) Send(now Cycle, item T) {
	// The common case first: the first send this cycle on a whole wire with
	// no fault or bit-error model ever armed and a free cell. With no replay
	// delay ever added (faultRate is armed before the first send), every
	// item in flight is due no later than this one.
	if p.lastSendCycle < now && int(p.n) < len(p.ring) && p.x == nil && !p.severed {
		p.lastSendCycle, p.sentThisCycle = now, 1
		*p.cell(p.n) = pipeEntry[T]{readyAt: now + Cycle(p.latency), item: item}
		p.n++
		p.wake(now)
		return
	}
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
	readyAt := now + Cycle(p.latency)
	if x != nil {
		if x.ber > 0 && x.berRNG.Bool(x.ber) {
			item = x.corruptFn(item)
			x.corrupted++
		}
		if x.faultRate > 0 {
			for x.rng.Bool(x.faultRate) {
				readyAt += 2 * Cycle(p.latency)
				x.retransmits++
			}
		}
	}
	// Go-back-N: an item sent behind a retransmitting predecessor is held in
	// the sender's retransmit buffer and replayed after it, so delivery stays
	// FIFO.
	if p.n > 0 {
		if last := p.cell(p.n - 1).readyAt; last > readyAt {
			readyAt = last
		}
	}
	if int(p.n) == len(p.ring) {
		p.grow()
	}
	*p.cell(p.n) = pipeEntry[T]{readyAt: readyAt, item: item}
	p.n++
	p.wake(now)
}

// wake arms the receiver's bit for an item sent at cycle now: at the cycle it
// is due without a replay, a prompt to look that a replayed item's receiver
// follows with Rearm.
func (p *Pipe[T]) wake(now Cycle) {
	if p.cal != nil {
		p.cal.Arm(now+Cycle(p.latency), 1<<p.bit)
	}
}

// grow doubles the ring (from nothing to 2 cells), unwrapping the items in
// flight to the front of the new one.
func (p *Pipe[T]) grow() {
	ring := make([]pipeEntry[T], max(2, 2*len(p.ring)))
	k := copy(ring, p.ring[p.head:])
	copy(ring[k:], p.ring[:p.head])
	p.ring, p.head = ring, 0
}

// Recv pops the oldest item whose delivery time has arrived (readyAt <= now).
// The second result is false when nothing is ready.
func (p *Pipe[T]) Recv(now Cycle) (item T, ok bool) {
	if p.n == 0 {
		return item, false
	}
	e := &p.ring[p.head]
	if e.readyAt > now {
		return item, false
	}
	item = e.item
	*e = pipeEntry[T]{} // drop the cell's references
	p.head = (p.head + 1) & uint32(len(p.ring)-1)
	p.n--
	return item, true
}

// HeadAt reports the cycle the oldest item in flight becomes receivable, and
// false when nothing is in flight. A receiver that acts on a schedule of its
// own rather than polling reads it to know when to look at the wire next.
func (p *Pipe[T]) HeadAt() (at Cycle, ok bool) {
	if p.n == 0 {
		return 0, false
	}
	return p.ring[p.head].readyAt, true
}

// Rearm arms the receiver's bit at its head's delivery cycle
// (Calendar.Rearm), read at cycle now, when anything is left on a bound pipe:
// the last step of a read that the calendar prompted.
func (p *Pipe[T]) Rearm(now Cycle) {
	if p.n > 0 && p.cal != nil {
		p.cal.Rearm(now, p.ring[p.head].readyAt, 1<<p.bit)
	}
}

// Len reports how many items are in flight (sent but not yet received).
func (p *Pipe[T]) Len() int { return int(p.n) }

// Empty reports whether nothing is in flight.
func (p *Pipe[T]) Empty() bool { return p.n == 0 }

// Each visits every in-flight item in FIFO order without consuming it; it
// exists for invariant checkers that audit conservation across a link.
func (p *Pipe[T]) Each(fn func(T)) {
	for i := uint32(0); i < p.n; i++ {
		fn(p.cell(i).item)
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
	p.destroy(onDrop)
}

// destroy empties the pipe, reporting each item that was in flight to onDrop
// when non-nil.
func (p *Pipe[T]) destroy(onDrop func(T)) {
	for i := uint32(0); i < p.n; i++ {
		e := p.cell(i)
		if onDrop != nil {
			onDrop(e.item)
		}
		*e = pipeEntry[T]{}
	}
	p.head, p.n = 0, 0
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
