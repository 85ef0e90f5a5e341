package noc

import (
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
