package sim

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestPipeDeliversAfterLatency(t *testing.T) {
	p := NewPipe[int](4, 1)
	p.Send(10, 42)
	for now := Cycle(10); now < 14; now++ {
		if _, ok := p.Recv(now); ok {
			t.Fatalf("item visible at cycle %d, before latency elapsed", now)
		}
	}
	got, ok := p.Recv(14)
	if !ok || got != 42 {
		t.Fatalf("Recv(14) = %v, %v; want 42, true", got, ok)
	}
	if _, ok := p.Recv(15); ok {
		t.Fatal("item delivered twice")
	}
}

func TestPipeFIFOWithinAndAcrossCycles(t *testing.T) {
	p := NewPipe[int](2, 3)
	p.Send(0, 1)
	p.Send(0, 2)
	p.Send(1, 3)
	var got []int
	for now := Cycle(2); now <= 3; now++ {
		for _, a := range p.Take(now) {
			got = append(got, a.Item)
		}
	}
	want := []int{1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("received %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("received %v, want %v", got, want)
		}
	}
}

func TestPipeBandwidthLimit(t *testing.T) {
	p := NewPipe[int](1, 2)
	for v := 1; v <= 2; v++ {
		if !p.CanSend(5) {
			t.Fatal("pipe refused sends within its width")
		}
		p.Send(5, v)
	}
	if p.CanSend(5) {
		t.Fatal("CanSend true beyond width")
	}
	if !p.CanSend(6) {
		t.Fatal("bandwidth not replenished on the next cycle")
	}
}

func TestPipeSendPanicsBeyondWidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Send beyond width did not panic")
		}
	}()
	p := NewPipe[int](1, 1)
	p.Send(0, 1)
	p.Send(0, 2)
}

func TestPipeRejectsBadConstruction(t *testing.T) {
	for _, tc := range []struct {
		latency Cycle
		width   int
	}{{0, 1}, {1, 0}, {-3, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewPipe(%d, %d) did not panic", tc.latency, tc.width)
				}
			}()
			NewPipe[int](tc.latency, tc.width)
		}()
	}
}

func TestPipeTimeBackwardsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("send at an earlier cycle did not panic")
		}
	}()
	p := NewPipe[int](1, 1)
	p.Send(5, 1)
	p.Send(4, 2)
}

func TestPipeEmpty(t *testing.T) {
	p := NewPipe[int](3, 1)
	if !p.Empty() {
		t.Fatal("new pipe not empty")
	}
	p.Send(0, 7)
	if p.Empty() {
		t.Fatal("pipe empty after send")
	}
	p.Recv(3)
	if !p.Empty() {
		t.Fatal("pipe not empty after delivery")
	}
}

// TestPipeOrderProperty: whatever the (latency, send schedule), items come
// out in send order with exactly the configured delay to a receiver that
// takes the wire every cycle.
func TestPipeOrderProperty(t *testing.T) {
	f := func(latencySeed uint8, gaps []uint8) bool {
		latency := Cycle(latencySeed%7) + 1
		p := NewPipe[int](latency, 1)
		now := Cycle(0)
		var sendTimes []Cycle
		for i, g := range gaps {
			if i >= 40 {
				break
			}
			now += Cycle(g % 5)
			if i > 0 && now == sendTimes[i-1] {
				now++
			}
			sendTimes = append(sendTimes, now)
		}
		idx, next := 0, 0
		for c := Cycle(0); c <= now+latency; c++ {
			if next < len(sendTimes) && sendTimes[next] == c {
				p.Send(c, next)
				next++
			}
			for _, a := range p.Take(c) {
				if v := a.Item; v != idx {
					t.Errorf("out of order: got %d, want %d", v, idx)
				} else if c != sendTimes[v]+latency {
					t.Errorf("item %d delivered at %d, want %d", v, c, sendTimes[v]+latency)
				}
				idx++
			}
		}
		return idx == len(sendTimes)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestFaultyPipeRecoversEveryItem: every item sent through a faulty pipe is
// eventually delivered exactly once, in FIFO order, with each corruption
// adding one link round-trip to the item's delay.
func TestFaultyPipeRecoversEveryItem(t *testing.T) {
	const latency, n = 3, 500
	p := NewPipe[int](latency, 1).WithFaults(0.2, NewRNG(7))
	got := make([]int, 0, n)
	for now := Cycle(0); now < n || !p.Empty(); now++ {
		p.Replay(now)
		for _, a := range p.Take(now) {
			got = append(got, a.Item)
		}
		if now < n {
			p.Send(now, int(now))
		}
	}
	if len(got) != n {
		t.Fatalf("delivered %d of %d items", len(got), n)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("FIFO order broken: position %d delivered item %d", i, v)
		}
	}
	if p.Retransmits() == 0 {
		t.Fatal("20%% corruption over 500 items produced no retransmissions")
	}
}

// TestFaultyPipeDelayIsRoundTripMultiple: with a single item in flight, the
// delivery delay is exactly latency + 2*latency*corruptions.
func TestFaultyPipeDelayIsRoundTripMultiple(t *testing.T) {
	const latency = 4
	for seed := uint64(1); seed < 30; seed++ {
		p := NewPipe[int](latency, 1).WithFaults(0.5, NewRNG(seed))
		before := p.Retransmits()
		p.Send(0, 42)
		k := p.Retransmits() - before
		want := Cycle(latency + 2*latency*k)
		for now := Cycle(0); now < want; now++ {
			if p.Replay(now); len(p.Take(now)) != 0 {
				t.Fatalf("seed %d: item delivered at cycle %d, before %d (k=%d)", seed, now, want, k)
			}
		}
		if p.Replay(want); len(p.Take(want)) != 1 {
			t.Fatalf("seed %d: item not delivered at cycle %d (k=%d)", seed, want, k)
		}
	}
}

// TestFaultyPipeZeroRateIsTransparent: a zero fault rate behaves exactly like
// NewPipe and needs no RNG.
func TestFaultyPipeZeroRateIsTransparent(t *testing.T) {
	p := NewPipe[string](2, 1).WithFaults(0, nil)
	p.Send(0, "x")
	if _, ok := p.Recv(1); ok {
		t.Fatal("item readable before latency elapsed")
	}
	if v, ok := p.Recv(2); !ok || v != "x" {
		t.Fatalf("Recv(2) = %q, %v", v, ok)
	}
	if p.Retransmits() != 0 {
		t.Fatal("zero-rate pipe reported retransmissions")
	}
}

// TestFaultyPipeRejectsBadRates: rates outside [0,1) and NaN panic.
func TestFaultyPipeRejectsBadRates(t *testing.T) {
	for _, rate := range []float64{-0.1, 1.0, 1.5, nan()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("rate %v did not panic", rate)
				}
			}()
			NewPipe[int](1, 1).WithFaults(rate, NewRNG(1))
		}()
	}
}

func nan() float64 { z := 0.0; return z / z }

// TestSeverDestroysInFlightAndBlocksSends: a severed pipe drops everything it
// held and everything sent while down, reporting each loss; Restore resumes
// normal delivery without resurrecting destroyed items.
func TestSeverDestroysInFlightAndBlocksSends(t *testing.T) {
	p := NewPipe[string](3, 2)
	p.Send(0, "a")
	p.Send(0, "b")
	var dropped []string
	p.Sever(func(s string) { dropped = append(dropped, s) })
	if !p.Severed() || !p.Empty() {
		t.Fatalf("after Sever: severed=%v empty=%v", p.Severed(), p.Empty())
	}
	p.Send(1, "c")
	if got := len(dropped); got != 3 {
		t.Fatalf("dropped %v, want [a b c]", dropped)
	}
	if got := p.Take(4); len(got) != 0 {
		t.Fatalf("severed pipe delivered %v", got)
	}
	p.Restore()
	if p.Severed() {
		t.Fatal("Restore left the pipe severed")
	}
	p.Send(2, "d")
	if got := p.Take(5); len(got) != 1 || got[0].Item != "d" {
		t.Fatalf("Take after restore = %v", got)
	}
	if len(dropped) != 3 {
		t.Fatalf("restore resurrected drops: %v", dropped)
	}
}

// TestSeverKeepsBandwidthAccounting: sends into a severed pipe still count
// against per-cycle width, so model bugs surface even while a link is down.
func TestSeverKeepsBandwidthAccounting(t *testing.T) {
	p := NewPipe[int](1, 1)
	p.Sever(nil)
	p.Send(0, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("over-width send on severed pipe did not panic")
		}
	}()
	p.Send(0, 2)
}

// TestEachVisitsWithoutConsuming: Each sees every in-flight item in order and
// leaves the pipe untouched.
func TestEachVisitsWithoutConsuming(t *testing.T) {
	p := NewPipe[int](5, 3)
	p.Send(0, 1)
	p.Send(0, 2)
	var seen []int
	p.Each(func(v int) { seen = append(seen, v) })
	if !slices.Equal(seen, []int{1, 2}) || p.Empty() {
		t.Fatalf("Each saw %v, empty=%v", seen, p.Empty())
	}
}

// TestArrivalsNameEverySlot: Arrivals reports each cycle something in the
// wire's slots falls due, earliest first, or Never for a wire that holds
// nothing, and a Take at each of those cycles drains the wire.
func TestArrivalsNameEverySlot(t *testing.T) {
	arrivals := func(p *Pipe[int]) (at []Cycle) {
		p.Arrivals(4, func(bit uint32, c Cycle) {
			if bit != 4 {
				t.Fatalf("Arrivals reported bit %d, want 4", bit)
			}
			at = append(at, c)
		})
		return at
	}
	p := NewPipe[int](5, 2)
	if got := arrivals(p); !slices.Equal(got, []Cycle{Never}) {
		t.Fatalf("empty pipe: arrivals %v, want [Never]", got)
	}
	p.Send(0, 1)
	p.Send(0, 2)
	p.Send(3, 3)
	if got := arrivals(p); !slices.Equal(got, []Cycle{5, 8}) {
		t.Fatalf("arrivals %v, want [5 8]", got)
	}
	if got := p.Take(5); len(got) != 2 || got[0].Item != 1 || got[1].Item != 2 {
		t.Fatalf("Take(5) = %v, want [1 2]", got)
	}
	if got := arrivals(p); !slices.Equal(got, []Cycle{8}) {
		t.Fatalf("arrivals after the first take %v, want [8]", got)
	}
	if got := p.Take(8); len(got) != 1 || got[0].Item != 3 || !p.Empty() {
		t.Fatalf("Take(8) = %v (empty %v), want [3] and an empty wire", got, p.Empty())
	}
}

// TestRecvReadsOneItemWires: Recv reads a wire one item wide that does not
// replay, and panics on a wider or a replaying one, whose slot may hold more.
func TestRecvReadsOneItemWires(t *testing.T) {
	for _, p := range []*Pipe[int]{NewPipe[int](1, 2), NewPipe[int](1, 1).WithFaults(0.5, NewRNG(1))} {
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "Recv reads a wire one item wide") {
					t.Fatalf("Recv on a wire whose slot may hold more: recovered %v", r)
				}
			}()
			p.Recv(1)
		}()
	}
}

// TestSendIntoUntakenSlotPanics: a wire's receiver reads it on the cycle its
// items fall due, so a send that comes round to a slot still holding an item
// nobody took is a model bug and panics, naming both cycles; once the slot is
// taken the same send goes through.
func TestSendIntoUntakenSlotPanics(t *testing.T) {
	p := NewPipe[int](2, 1) // four slots: cycle 6 reuses cycle 2's
	p.Send(0, 1)
	func() {
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "due at cycle 2") {
				t.Fatalf("send into the untaken slot of cycle 2: recovered %v", r)
			}
		}()
		p.Send(4, 2)
	}()

	q := NewPipe[int](2, 1)
	q.Send(0, 1)
	if got := q.Take(2); len(got) != 1 || got[0].Item != 1 {
		t.Fatalf("Take(2) = %v, want the item sent at 0", got)
	}
	q.Send(4, 2)
	if got := q.Take(6); len(got) != 1 || got[0].Item != 2 {
		t.Fatalf("Take(6) = %v, want the item sent at 4", got)
	}
}

// TestResetLeavesNoStaleItems: a slot's items end at the first cell due
// another cycle, so a wide wire reset and run again from cycle 0 must not
// find, in a cell its new sends have not reached, an item left from before
// the reset and due the same cycle.
func TestResetLeavesNoStaleItems(t *testing.T) {
	p := NewPipe[int](1, 2)
	for now := Cycle(0); now < 10; now++ {
		p.Send(now, 1)
		p.Send(now, 2)
		p.Take(now)
	}
	p.Reset()
	for now := Cycle(0); now < 10; now++ {
		p.Send(now, 3)
		if got := p.Take(now); now > 0 && (len(got) != 1 || got[0].Item != 3) {
			t.Fatalf("cycle %d after the reset: took %v, want the one item sent at %d", now, got, now-1)
		}
	}
}
