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

// sinkRig is a sink on node 6 whose deliveries are counted, and send puts one
// flit on its ejection wire the way a router does, on virtual channel vc.
type sinkRig struct {
	s         *Sink
	delivered []PacketID
	now       sim.Cycle
}

func newSinkRig() *sinkRig {
	g := &sinkRig{}
	g.s = NewSink(6, &Hooks{PacketDelivered: func(p *Packet, _ sim.Cycle) { g.delivered = append(g.delivered, p.ID) }})
	g.s.Data = sim.NewPipe[DataFlit](1, 1)
	g.s.Cal = make(sim.Calendar, sim.CalendarCells(1))
	return g
}

// eject sends f on vc and ticks the sink the cycle it arrives.
func (g *sinkRig) eject(f DataFlit, vc int) {
	f.VC = int32(vc)
	g.s.Data.Send(g.now, f)
	g.s.Cal.Arm(g.now+1, SinkBit)
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
