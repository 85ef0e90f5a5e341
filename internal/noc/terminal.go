package noc

import (
	"fmt"

	"frfc/internal/metrics"
	"frfc/internal/profile"
	"frfc/internal/sim"
	"frfc/internal/topology"
	"frfc/internal/waterfall"
)

// SourceQueue is the FIFO of whole packets waiting at a network interface for
// injection to begin, the queue every fabric's interface keeps and
// Network.SourceQueueLen sums. pkts[head:] holds the packets, oldest first:
// Pop advances head instead of shifting and Push reclaims the consumed front
// once it is half the slice, so a source thousands of packets deep beyond
// saturation still dequeues in constant time. The zero value is empty.
type SourceQueue struct {
	pkts []*Packet
	head int
}

// Room gives an empty queue the array it keeps its packets in for as long as
// no more than cap(buf) wait at once; a queue never given one makes its own.
func (q *SourceQueue) Room(buf []*Packet) { q.pkts, q.head = buf[:0], 0 }

// Push appends a packet behind every packet already waiting.
func (q *SourceQueue) Push(p *Packet) {
	if q.head > 0 && 2*q.head >= len(q.pkts) {
		live := copy(q.pkts, q.pkts[q.head:])
		clear(q.pkts[live:])
		q.pkts, q.head = q.pkts[:live], 0
	}
	q.pkts = append(q.pkts, p)
}

// Pop removes and returns the oldest packet. The queue must not be empty.
func (q *SourceQueue) Pop() *Packet {
	p := q.pkts[q.head]
	q.pkts[q.head] = nil
	if q.head++; q.head == len(q.pkts) {
		q.pkts, q.head = q.pkts[:0], 0
	}
	return p
}

// Reset empties the queue, keeping the room it had grown to.
func (q *SourceQueue) Reset() {
	clear(q.pkts)
	q.pkts, q.head = q.pkts[:0], 0
}

// Len reports how many packets are waiting.
func (q *SourceQueue) Len() int { return len(q.pkts) - q.head }

// Filter removes every waiting packet keep rejects, asking in queue order and
// preserving the order of the rest.
func (q *SourceQueue) Filter(keep func(*Packet) bool) {
	kept := q.pkts[:0]
	for _, p := range q.pkts[q.head:] {
		if keep(p) {
			kept = append(kept, p)
		}
	}
	clear(q.pkts[len(kept):])
	q.pkts, q.head = kept, 0
}

// Sink is a terminal's ejection side on every fabric whose flits identify
// themselves on the wire (head/tail framing: virtual channels, wormhole, and
// the packet-switched and circuit baselines): it takes each packet's flits
// off the ejection wire and reports the packet delivered when the last one
// arrives. Reassembly space is unbounded, matching the paper's
// immediate-ejection assumption. It tallies what it delivered and the
// corrupted flits that reached it, which its network sums into Counts.
//
// An ejection virtual channel carries one packet at a time, its flits in
// order, so the sink needs no table of packets: it keeps the Seq the next
// flit on each channel must carry and panics, naming the node, the channel
// and that Seq, on a flit that skips ahead or comes again.
type Sink struct {
	Data *sim.Pipe[DataFlit] // the ejection wire
	// Cal is the node's due calendar: Data arms SinkBit in it beside each
	// flit it carries, and Tick reads Data only on the cycles it is set.
	Cal sim.Calendar

	// What a fabric may leave nil: the probe the sink reports each ejected
	// flit to, the self-profile it reports its ticks to, and the
	// latency-stage ledger. Node is the sink's node in the first two.
	Node   topology.NodeID
	Probe  *metrics.Probe
	Prof   *profile.Registry
	Ledger *waterfall.Ledger

	// next[vc] is the Seq the next flit on ejection channel vc must carry,
	// 0 between packets; the slice grows to the highest channel seen and
	// keeps that length across Reset.
	next  []int32
	hooks *Hooks
	// delivered counts fully reassembled packets; escapes counts flits that
	// arrived corrupted, past every hop CRC. These fabrics have no end-to-end
	// check, so an escape is counted and then delivered as good data.
	delivered, escapes int64
}

// SinkBit is the ejection wire's bit in a node's due calendar, the top one: a
// fabric that ejects through Sink gives its other wires the bits below.
const SinkBit = 1 << 31

// NewSink returns node's sink, reporting through hooks.
func NewSink(node topology.NodeID, hooks *Hooks) *Sink {
	return &Sink{Node: node, hooks: hooks}
}

// Reset forgets every partly ejected packet and the tallies; the wire, the
// calendar, the probe and the ledger are its Terminals' and network's to
// reset, clear and detach.
func (s *Sink) Reset() {
	clear(s.next)
	s.delivered, s.escapes = 0, 0
}

// AddCounts adds the sink's tallies to c.
func (s *Sink) AddCounts(c *Counts) {
	c.Delivered += s.delivered
	c.CorruptEscapes += s.escapes
}

// Tick receives the flits that arrived this cycle, if its calendar says any
// did.
func (s *Sink) Tick(now sim.Cycle) {
	received := 0
	if cell := s.Cal.Cell(now); *cell&SinkBit != 0 {
		*cell &^= SinkBit
		arrived := s.Data.Take(now)
		for i := range arrived {
			f := &arrived[i].Item
			received++
			if f.Corrupted {
				s.escapes++
			}
			s.hooks.Ejected(now)
			s.Probe.Eject(now, int(s.Node), uint64(f.Packet.ID), int(f.Seq))
			if s.Ledger != nil && f.Seq == 0 && f.Packet.Sampled {
				s.Ledger.Eject(uint64(f.Packet.ID), 0, now)
			}
			vc := int(f.VC)
			if vc >= len(s.next) {
				s.next = append(s.next, make([]int32, vc+1-len(s.next))...)
			}
			if f.Seq != s.next[vc] {
				panic(fmt.Sprintf("noc: node %d ejection vc %d: %s where seq %d was due", s.Node, vc, f, s.next[vc]))
			}
			s.next[vc]++
			if f.Seq == f.Packet.Len-1 {
				s.next[vc] = 0
				s.delivered++
				s.hooks.Delivered(f.Packet, now)
			}
		}
	}
	s.Prof.ComponentTick(profile.CompSink, int(s.Node), received > 0)
}

// Terminals is the terminal model of every fabric that ejects through Sink —
// a FIFO source queue at each interface, immediate ejection at each sink —
// and the rest of what such a mesh holds once for all its nodes, which the
// fabric's Network embeds: per node the sink with its ejection wire, the due
// calendar the node's router, interface and sink share, and a pointer to the
// interface's source queue; the one Hooks value the sinks report through;
// the packets offered; and every wire the fabric builds, made with NewWire.
// The fabric keeps its routers, interfaces, wiring and Tick.
type Terminals struct {
	// Sinks[id] is node id's sink; its Data is the ejection wire the
	// router's Local output sends on.
	Sinks []*Sink
	// Queues[id] is node id's interface's source queue, set by the fabric
	// as it builds the interface.
	Queues []*SourceQueue

	cals    []uint32 // the nodes' calendars, cells words each
	cells   int
	hooks   *Hooks
	offered int64
	wires   []interface{ Reset() }
}

// NewTerminals returns the terminals of nodes nodes with ejection wires of
// the given latency, whose calendars reach as far ahead as the longest of
// that and reach, the latency of the fabric's other wires.
func NewTerminals(nodes int, reach, local sim.Cycle) Terminals {
	t := Terminals{
		Sinks:  make([]*Sink, nodes),
		Queues: make([]*SourceQueue, nodes),
		cells:  sim.CalendarCells(max(reach, local)),
		hooks:  new(Hooks),
	}
	t.cals = make([]uint32, nodes*t.cells)
	for id := range nodes {
		s := NewSink(topology.NodeID(id), t.hooks)
		s.Cal = t.Cal(id)
		s.Data = NewWire[DataFlit](&t, local, 1, &s.Cal, SinkBit)
		t.Sinks[id] = s
	}
	return t
}

// NewWire returns a wire of the given latency and width that wakes its
// receiver on bit of the calendar *cal (sim.Pipe.Wakes) and that t's Reset
// empties, the one way a fabric that embeds Terminals makes a pipe.
func NewWire[T any](t *Terminals, latency sim.Cycle, width int, cal *sim.Calendar, bit uint32) *sim.Pipe[T] {
	p := sim.NewPipe[T](latency, width).Wakes(cal, bit)
	t.wires = append(t.wires, p)
	return p
}

// Cal returns node id's due calendar.
func (t *Terminals) Cal(id int) sim.Calendar {
	lo, hi := id*t.cells, (id+1)*t.cells
	return sim.Calendar(t.cals[lo:hi:hi])
}

// Reset installs hooks (nil for none) as what the sinks report through,
// forgets the packets offered, and empties every source queue, sink,
// calendar and wire. It runs first in the fabric's Reset, before its own
// components draw their random streams.
func (t *Terminals) Reset(hooks *Hooks) {
	*t.hooks = Hooks{}
	if hooks != nil {
		*t.hooks = *hooks
	}
	t.offered = 0
	clear(t.cals)
	for id, s := range t.Sinks {
		t.Queues[id].Reset()
		s.Reset()
	}
	for _, w := range t.wires {
		w.Reset()
	}
}

// Offer implements Network.Offer.
func (t *Terminals) Offer(p *Packet) {
	t.offered++
	t.Queues[p.Src].Push(p)
}

// SourceQueueLen implements Network.SourceQueueLen.
func (t *Terminals) SourceQueueLen() int {
	total := 0
	for _, q := range t.Queues {
		total += q.Len()
	}
	return total
}

// InFlightPackets implements Network.InFlightPackets.
func (t *Terminals) InFlightPackets() int {
	return int(t.offered - t.Counts().Delivered)
}

// Counts reports the packets offered and what the sinks tallied: all of
// Network.Counts for a fabric with no other counters.
func (t *Terminals) Counts() Counts {
	c := Counts{Offered: t.offered}
	for _, s := range t.Sinks {
		s.AddCounts(&c)
	}
	return c
}
