package noc

import (
	"fmt"
	"strings"
	"testing"

	"frfc/internal/sim"
)

// TestSourceQueueStaysFIFOAndBounded: the source queue hands packets back in
// offer order however pushes and pops interleave, and a queue that hovers
// around a few packets for a long time keeps a backing array of that order,
// not one that grows with everything ever offered.
func TestSourceQueueStaysFIFOAndBounded(t *testing.T) {
	var q SourceQueue
	rng := sim.NewRNG(3)
	next, want := PacketID(0), PacketID(0)
	for step := 0; step < 20000; step++ {
		// Hover between 1 and 12 queued, never empty for long.
		if q.Len() < 12 && (q.Len() < 2 || rng.Bool(0.5)) {
			q.Push(&Packet{ID: next})
			next++
		} else {
			if got := q.Pop().ID; got != want {
				t.Fatalf("step %d: popped packet %d, want %d", step, got, want)
			}
			want++
		}
		if q.Len() != int(next-want) {
			t.Fatalf("step %d: Len %d with %d pushed and %d taken", step, q.Len(), next, want)
		}
	}
	if cap(q.pkts) > 64 {
		t.Fatalf("a queue that never held more than 12 packets owns %d cells", cap(q.pkts))
	}
}

// TestSourceQueueFilter: Filter drops exactly the rejected packets, asks in
// queue order, and leaves the rest in order — from a queue whose head has
// advanced as from a fresh one.
func TestSourceQueueFilter(t *testing.T) {
	var q SourceQueue
	for id := PacketID(0); id < 10; id++ {
		q.Push(&Packet{ID: id})
	}
	q.Pop()
	q.Pop()
	var asked []PacketID
	q.Filter(func(p *Packet) bool {
		asked = append(asked, p.ID)
		return p.ID%3 != 0
	})
	if len(asked) != 8 || asked[0] != 2 || asked[7] != 9 {
		t.Fatalf("Filter asked about %v, want 2..9 in order", asked)
	}
	for _, want := range []PacketID{2, 4, 5, 7, 8} {
		if got := q.Pop().ID; got != want {
			t.Fatalf("after Filter popped %d, want %d", got, want)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("%d packets left after popping every kept one", q.Len())
	}
}

// sinkRig is a sink on node 6 whose deliveries are counted, and eject puts one
// flit on its ejection wire the way a router does, on virtual channel vc.
type sinkRig struct {
	s         *Sink
	delivered []PacketID
	now       sim.Cycle
}

func newSinkRig() *sinkRig {
	g := &sinkRig{}
	g.s = NewSink(6, &Hooks{PacketDelivered: func(p *Packet, _ sim.Cycle) { g.delivered = append(g.delivered, p.ID) }})
	g.s.Cal = make(sim.Calendar, sim.CalendarCells(1))
	g.s.Data = sim.NewPipe[DataFlit](1, 1).Wakes(&g.s.Cal, SinkBit)
	return g
}

// eject sends f on vc and ticks the sink the cycle it arrives.
func (g *sinkRig) eject(f DataFlit, vc int) {
	f.VC = int32(vc)
	g.s.Data.Send(g.now, f)
	g.now++
	g.s.Tick(g.now)
}

// ejectPanic reports what eject panicked with, "" if it did not.
func (g *sinkRig) ejectPanic(f DataFlit, vc int) (msg string) {
	defer func() {
		if e := recover(); e != nil {
			msg = fmt.Sprint(e)
		}
	}()
	g.eject(f, vc)
	return ""
}

// TestSinkDeliversOnTheLastFlit: packets interleaved across ejection channels,
// each channel's flits in order, are each delivered once, when their own last
// flit arrives.
func TestSinkDeliversOnTheLastFlit(t *testing.T) {
	g := newSinkRig()
	a, b := DataFlits(&Packet{ID: 1, Len: 3}), DataFlits(&Packet{ID: 2, Len: 2})
	g.eject(a[0], 1)
	g.eject(b[0], 4)
	g.eject(a[1], 1)
	g.eject(b[1], 4)
	if len(g.delivered) != 1 || g.delivered[0] != 2 {
		t.Fatalf("delivered %v before packet 1's last flit, want [2]", g.delivered)
	}
	g.eject(a[2], 1)
	g.eject(DataFlits(&Packet{ID: 3, Len: 1})[0], 1)
	var c Counts
	g.s.AddCounts(&c)
	if len(g.delivered) != 3 || g.delivered[1] != 1 || g.delivered[2] != 3 || c.Delivered != 3 {
		t.Fatalf("delivered %v (counted %d), want [2 1 3]", g.delivered, c.Delivered)
	}
}

// TestSinkPanicsOnAGapOrARepeat: a flit that skips ahead of its channel's
// sequence, or one that comes again, is a leak in the model, and the sink
// says where: the node, the channel and the Seq that was due.
func TestSinkPanicsOnAGapOrARepeat(t *testing.T) {
	for _, tc := range []struct {
		name string
		seqs []int // the Seq of each flit sent, the last one out of order
		due  int
	}{
		{"gap", []int{0, 2}, 1},
		{"repeat", []int{0, 1, 1}, 2},
		{"fresh head mid-packet", []int{0, 1, 0}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := newSinkRig()
			flits := DataFlits(&Packet{ID: 9, Len: 4})
			last := len(tc.seqs) - 1
			for _, seq := range tc.seqs[:last] {
				if msg := g.ejectPanic(flits[seq], 3); msg != "" {
					t.Fatalf("flit %d in order panicked: %s", seq, msg)
				}
			}
			msg := g.ejectPanic(flits[tc.seqs[last]], 3)
			for _, want := range []string{"node 6", "vc 3", fmt.Sprintf("seq %d was due", tc.due)} {
				if !strings.Contains(msg, want) {
					t.Fatalf("flit %d after %v: panic %q does not name %q", tc.seqs[last], tc.seqs[:last], msg, want)
				}
			}
		})
	}
}

// TestSinkResetForgetsPartPackets: after a Reset in the middle of a packet, a
// fresh packet on the same channel is ejected from its first flit and
// delivered, and the per-channel cells keep the array they had grown, so a
// run after a Reset allocates nothing in the sink (the allocation gates of
// the fabrics that eject through it count that).
func TestSinkResetForgetsPartPackets(t *testing.T) {
	g := newSinkRig()
	old := DataFlits(&Packet{ID: 1, Len: 4})
	g.eject(old[0], 5)
	g.eject(old[1], 5)
	cells := &g.s.next[0]
	g.s.Reset()
	g.delivered = nil
	for _, f := range DataFlits(&Packet{ID: 2, Len: 2}) {
		if msg := g.ejectPanic(f, 5); msg != "" {
			t.Fatalf("a fresh packet after Reset panicked: %s", msg)
		}
	}
	if len(g.delivered) != 1 || g.delivered[0] != 2 {
		t.Fatalf("delivered %v after Reset, want [2]", g.delivered)
	}
	if len(g.s.next) != 6 || &g.s.next[0] != cells {
		t.Fatalf("the sink holds %d channel cells after Reset, in a new array: want the 6 it had grown", len(g.s.next))
	}
}

// TestTerminalsCountAndReset: on two nodes, Offer, SourceQueueLen,
// InFlightPackets and Counts agree with the packets queued and delivered; and
// after traffic, Reset with new hooks leaves every source queue, sink tally,
// calendar word and wire made with NewWire empty, and only the new hooks hear
// of what is delivered after it.
func TestTerminalsCountAndReset(t *testing.T) {
	terms := NewTerminals(2, 2, 1)
	var queues [2]SourceQueue
	terms.Queues[0], terms.Queues[1] = &queues[0], &queues[1]
	cal := terms.Cal(0)
	credits := NewWire[VCCredit](&terms, 2, 1, &cal, 1)
	var heard [2][]PacketID
	hooks := func(run int) *Hooks {
		return &Hooks{PacketDelivered: func(p *Packet, _ sim.Cycle) { heard[run] = append(heard[run], p.ID) }}
	}
	now := sim.Cycle(0)
	// eject sends f on node id's ejection wire, which arms its calendar, and
	// ticks the sink the cycle it arrives unless f is to stay on the wire.
	eject := func(id int, f DataFlit, tick bool) {
		s := terms.Sinks[id]
		s.Data.Send(now, f)
		if now++; tick {
			s.Tick(now)
		}
	}
	check := func(when string, queued, inFlight int, want Counts) {
		t.Helper()
		if got := terms.SourceQueueLen(); got != queued {
			t.Fatalf("%s: SourceQueueLen %d, want %d", when, got, queued)
		}
		if got := terms.InFlightPackets(); got != inFlight {
			t.Fatalf("%s: InFlightPackets %d, want %d", when, got, inFlight)
		}
		if got := terms.Counts(); got != want {
			t.Fatalf("%s: Counts %+v, want %+v", when, got, want)
		}
	}

	terms.Reset(hooks(0))
	long, short := &Packet{ID: 1, Src: 0, Dst: 1, Len: 2}, &Packet{ID: 2, Src: 1, Dst: 0, Len: 1}
	terms.Offer(long)
	terms.Offer(short)
	terms.Offer(&Packet{ID: 3, Src: 0, Dst: 1, Len: 1})
	check("three offered", 3, 3, Counts{Offered: 3})
	if queues[0].Len() != 2 || queues[1].Len() != 1 {
		t.Fatalf("queues hold %d and %d packets, want each at its source: 2 and 1", queues[0].Len(), queues[1].Len())
	}

	eject(0, DataFlits(queues[1].Pop())[0], true)
	check("one delivered", 2, 2, Counts{Offered: 3, Delivered: 1})
	flits := DataFlits(queues[0].Pop())
	flits[0].Corrupted = true
	eject(1, flits[0], true)
	eject(1, flits[1], false)
	credits.Send(now, VCCredit{})
	check("one delivered, one mid-ejection", 1, 2, Counts{Offered: 3, Delivered: 1, CorruptEscapes: 1})
	if len(heard[0]) != 1 || heard[0][0] != short.ID {
		t.Fatalf("the hooks heard of %v, want [%d]", heard[0], short.ID)
	}

	terms.Reset(hooks(1))
	check("after Reset", 0, 0, Counts{})
	for id, s := range terms.Sinks {
		for c, w := range terms.Cal(id) {
			if w != 0 {
				t.Fatalf("after Reset node %d's calendar word %d holds %#x", id, c, w)
			}
		}
		if !s.Data.Empty() {
			t.Fatalf("after Reset node %d's ejection wire still carries flits", id)
		}
	}
	if !credits.Empty() {
		t.Fatal("after Reset a wire made with NewWire still carries items")
	}
	// The packet cut off mid-ejection on node 1 is forgotten: a fresh one on
	// the same channel ejects from its first flit, and only the new hooks
	// hear of it.
	for _, f := range DataFlits(&Packet{ID: 4, Src: 0, Dst: 1, Len: 2}) {
		eject(1, f, true)
	}
	if len(heard[0]) != 1 || len(heard[1]) != 1 || heard[1][0] != 4 {
		t.Fatalf("after Reset the old hooks heard of %v and the new of %v, want [%d] and [4]", heard[0], heard[1], short.ID)
	}
}
