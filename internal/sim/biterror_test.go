package sim

import (
	"math"
	"testing"
)

type berItem struct {
	n       int
	corrupt bool
}

// TestBitErrorsDeliverOnTimeAndMarked: a bit error is corruption, not loss —
// every item arrives exactly at now+latency in FIFO order, a seeded fraction
// passes through the corrupting transform, and the Corrupted counter agrees
// with what the receiver observes.
func TestBitErrorsDeliverOnTimeAndMarked(t *testing.T) {
	p := NewPipe[berItem](3, 1).WithBitErrors(0.3, NewRNG(11), func(it berItem) berItem {
		it.corrupt = true
		return it
	})
	const n = 2000
	sent := Cycle(0)
	got := 0
	corrupted := 0
	for i := 0; i < n; i++ {
		p.Send(sent, berItem{n: i})
		for it, ok := p.Recv(sent); ok; it, ok = p.Recv(sent) {
			if it.n != got {
				t.Fatalf("out of order: got item %d, want %d", it.n, got)
			}
			got++
			if it.corrupt {
				corrupted++
			}
		}
		sent++
	}
	for !p.Empty() {
		for it, ok := p.Recv(sent); ok; it, ok = p.Recv(sent) {
			if it.corrupt {
				corrupted++
			}
			got++
		}
		sent++
	}
	if sent != Cycle(n)+3 {
		t.Fatalf("drained at cycle %d, want %d: bit errors must not delay delivery", sent, n+3)
	}
	if got != n {
		t.Fatalf("received %d of %d items: bit errors must not drop", got, n)
	}
	if int64(corrupted) != p.Corrupted() {
		t.Fatalf("receiver saw %d corrupted items, pipe counted %d", corrupted, p.Corrupted())
	}
	if f := float64(corrupted) / n; math.Abs(f-0.3) > 0.05 {
		t.Fatalf("corruption frequency %.3f far from configured 0.3", f)
	}
}

// TestBitErrorsComposeWithFaultyPipe: the corruption mode stacks on the
// loss/delay model — a corrupted item can also be delayed by link-level
// retransmission, and neither model drops anything.
func TestBitErrorsComposeWithFaultyPipe(t *testing.T) {
	p := NewPipe[berItem](2, 1).WithFaults(0.2, NewRNG(5)).
		WithBitErrors(0.2, NewRNG(6), func(it berItem) berItem {
			it.corrupt = true
			return it
		})
	const n = 500
	now := Cycle(0)
	for i := 0; i < n; i++ {
		p.Send(now, berItem{n: i})
		now++
	}
	got := 0
	for !p.Empty() && now < 100000 {
		p.Replay(now)
		for _, a := range p.Take(now) {
			if a.Item.n != got {
				t.Fatalf("out of order: got %d, want %d", a.Item.n, got)
			}
			got++
		}
		now++
	}
	if got != n {
		t.Fatalf("received %d of %d items", got, n)
	}
	if p.Corrupted() == 0 || p.Retransmits() == 0 {
		t.Fatalf("composition exercised nothing: corrupted=%d retransmits=%d", p.Corrupted(), p.Retransmits())
	}
}

// TestSetBitErrorRateRetunes: scenario "corrupt" events retune the rate
// mid-run; rate 0 heals the link and an unarmed pipe rejects retuning. The
// receiver takes each item on the cycle it arrives.
func TestSetBitErrorRateRetunes(t *testing.T) {
	p := NewPipe[berItem](1, 1).WithBitErrors(0.9, NewRNG(1), func(it berItem) berItem {
		it.corrupt = true
		return it
	})
	now := Cycle(0)
	for i := 0; i < 50; i++ {
		p.Send(now, berItem{})
		now++
		p.Take(now)
	}
	if p.Corrupted() == 0 {
		t.Fatal("armed pipe corrupted nothing at rate 0.9")
	}
	healed := p.Corrupted()
	p.SetBitErrorRate(0)
	for i := 0; i < 50; i++ {
		p.Send(now, berItem{})
		now++
		p.Take(now)
	}
	if p.Corrupted() != healed {
		t.Fatalf("healed pipe kept corrupting: %d -> %d", healed, p.Corrupted())
	}

	unarmed := NewPipe[berItem](1, 1)
	defer func() {
		if recover() == nil {
			t.Error("SetBitErrorRate on an unarmed pipe did not panic")
		}
	}()
	unarmed.SetBitErrorRate(0.1)
}

// TestWithBitErrorsRejectsBadArms: out-of-range rates and missing
// collaborators panic at arm time, not mid-simulation.
func TestWithBitErrorsRejectsBadArms(t *testing.T) {
	ident := func(it berItem) berItem { return it }
	cases := []func(){
		func() { NewPipe[berItem](1, 1).WithBitErrors(-0.1, NewRNG(1), ident) },
		func() { NewPipe[berItem](1, 1).WithBitErrors(1.0, NewRNG(1), ident) },
		func() { NewPipe[berItem](1, 1).WithBitErrors(math.NaN(), NewRNG(1), ident) },
		func() { NewPipe[berItem](1, 1).WithBitErrors(0.1, nil, ident) },
		func() { NewPipe[berItem](1, 1).WithBitErrors(0.1, NewRNG(1), nil) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			fn()
		}()
	}
}
