package sim

import (
	"fmt"
	"slices"
	"testing"
)

// slicePipe is the pipe as it was before it became a ring: a slice shifted
// down on every dequeue. It is the reference the ring is held to; it skips
// the bandwidth and clock checks because the script below never trips them.
type slicePipe struct {
	latency              Cycle
	q                    []pipeEntry[int]
	faultRate, ber       float64
	rng, berRNG          *RNG
	severed              bool
	onDrop               func(int)
	retransmits, corrupt int64
}

func (p *slicePipe) Send(now Cycle, item int) {
	if p.severed {
		if p.onDrop != nil {
			p.onDrop(item)
		}
		return
	}
	if p.ber > 0 && p.berRNG.Bool(p.ber) {
		item, p.corrupt = -item, p.corrupt+1
	}
	readyAt := now + p.latency
	for p.faultRate > 0 && p.rng.Bool(p.faultRate) {
		readyAt, p.retransmits = readyAt+2*p.latency, p.retransmits+1
	}
	if n := len(p.q); n > 0 && p.q[n-1].readyAt > readyAt {
		readyAt = p.q[n-1].readyAt
	}
	p.q = append(p.q, pipeEntry[int]{readyAt, item})
}

func (p *slicePipe) Recv(now Cycle) (int, bool) {
	if len(p.q) == 0 || p.q[0].readyAt > now {
		return 0, false
	}
	item := p.q[0].item
	p.q = p.q[:copy(p.q, p.q[1:])]
	return item, true
}

func (p *slicePipe) Sever(onDrop func(int)) {
	p.onDrop = onDrop
	if !p.severed {
		p.severed = true
		for _, e := range p.q {
			if onDrop != nil {
				onDrop(e.item)
			}
		}
		p.q = nil
	}
}

// reset is Pipe.Reset on the model: nothing in flight, the wire whole and
// the counters zero, the rates and generators as they were.
func (p *slicePipe) reset() {
	p.q, p.severed, p.onDrop = nil, false, nil
	p.retransmits, p.corrupt = 0, 0
}

// pipeEntry is a cell of the slice reference: an item and the cycle it is
// delivered at.
type pipeEntry[T any] struct {
	readyAt Cycle
	item    T
}

// TestRingPipeMatchesSliceModel drives the slotted pipe and the slice
// reference with one random script of sends, Each walks, severs with and
// without a drop callback, restores and one Reset two thirds through — widths
// 1–4, latencies 1–8, clean, faulty and bit-error wires, and wires armed at
// bit-error rate 0 and retuned by SetBitErrorRate every 400 cycles (how a
// network arms its links for a scenario's "corrupt" events) — with a receiver
// that reads the wire on every cycle, as a wire's receiver must: a Take
// (after a faulty wire's Replay) or, on a clean wire one item wide, a Recv,
// drawn each cycle. It requires the same items in the same order at the same
// cycles, and the same Retransmits, Corrupted and drops, and that the script
// filled a slot to its width and, on a faulty wire, piled more than a width
// of replayed items into one cycle.
func TestRingPipeMatchesSliceModel(t *testing.T) {
	for trial := 0; trial < 128; trial++ {
		script := NewRNG(uint64(1000 + trial))
		width, latency := 1+trial%4, Cycle(1+trial/4%8)
		retuned := trial >= 96
		faulty, bitErrors := !retuned && trial%3 == 1, !retuned && trial%3 == 2
		name := fmt.Sprintf("w%d-l%d-faulty=%v-ber=%v", width, latency, faulty, bitErrors)
		if retuned {
			name = fmt.Sprintf("w%d-l%d-ber-retuned", width, latency)
		}
		t.Run(name, func(t *testing.T) {
			ring := NewPipe[int](latency, width)
			ref := &slicePipe{latency: latency}
			if faulty {
				ring = NewPipe[int](latency, width).WithFaults(0.15, NewRNG(7))
				ref.faultRate, ref.rng = 0.15, NewRNG(7)
			}
			if bitErrors {
				ring.WithBitErrors(0.2, NewRNG(9), func(v int) int { return -v })
				ref.ber, ref.berRNG = 0.2, NewRNG(9)
			}
			if retuned {
				ring.WithBitErrors(0, NewRNG(9), func(v int) int { return -v })
				ref.berRNG = NewRNG(9)
			}
			var ringDrops, refDrops []int
			same := func(what string, now Cycle, got, want []int) {
				t.Helper()
				if !slices.Equal(got, want) {
					t.Fatalf("cycle %d %s: ring %v, slice model %v", now, what, got, want)
				}
			}
			next, widest, corruptedAny := 1, 0, false
			for now := Cycle(0); now < 1500; now++ {
				if now == 1000 {
					ring.Reset()
					ref.reset()
				}
				if retuned && now%400 == 200 { // 0.3 from 200, 0 from 600, 0.3 from 1000...
					ber := 0.3 - ref.ber
					ring.SetBitErrorRate(ber)
					ref.ber = ber
				}
				if script.Intn(90) == 0 {
					switch {
					case ring.Severed():
						ring.Restore()
						ref.severed, ref.onDrop = false, nil
					case script.Intn(2) == 0:
						ring.Sever(nil)
						ref.Sever(nil)
					default:
						ring.Sever(func(v int) { ringDrops = append(ringDrops, v) })
						ref.Sever(func(v int) { refDrops = append(refDrops, v) })
					}
				}
				for s := script.Intn(width + 1); s > 0; s-- {
					ring.Send(now, next)
					ref.Send(now, next)
					next++
				}

				var got, want []int
				ring.Each(func(v int) { got = append(got, v) })
				for _, e := range ref.q {
					want = append(want, e.item)
				}
				same("in flight", now, got, want)

				got, want = got[:0], want[:0]
				if script.Intn(2) == 0 || width > 1 || faulty {
					ring.Replay(now)
					for _, a := range ring.Take(now) {
						got = append(got, a.Item)
					}
				} else {
					for v, ok := ring.Recv(now); ok; v, ok = ring.Recv(now) {
						got = append(got, v)
					}
				}
				for v, ok := ref.Recv(now); ok; v, ok = ref.Recv(now) {
					want = append(want, v)
				}
				same("received", now, got, want)
				widest = max(widest, len(got))
				same("dropped", now, ringDrops, refDrops)
				if ring.Empty() != (len(ref.q) == 0) {
					t.Fatalf("cycle %d: Empty %v, slice model holds %d", now, ring.Empty(), len(ref.q))
				}
				corruptedAny = corruptedAny || ring.Corrupted() > 0
				if ring.Retransmits() != ref.retransmits || ring.Corrupted() != ref.corrupt {
					t.Fatalf("cycle %d: retransmits %d corrupted %d, slice model %d and %d",
						now, ring.Retransmits(), ring.Corrupted(), ref.retransmits, ref.corrupt)
				}
			}
			if widest < width || faulty && widest <= width {
				t.Fatalf("script too gentle: at most %d items fell due in one cycle on a wire %d wide", widest, width)
			}
			if retuned && !corruptedAny {
				t.Fatal("retuned wire never corrupted anything: the retune schedule is too gentle")
			}
		})
	}
}

// TestFaultFreeWireHasNoColdBlock: the fault, drop-callback and bit-error
// state is made only when a model is armed or the wire is severed with a
// callback, so a fault-free wire keeps Send's one-line fast path through a
// sever without one, a restore and a reset.
func TestFaultFreeWireHasNoColdBlock(t *testing.T) {
	p := NewPipe[int](2, 1)
	p.Send(0, 1)
	p.Sever(nil)
	p.Restore()
	p.Reset()
	p.SetBitErrorRate(0)
	if p.x != nil || p.Retransmits() != 0 || p.Corrupted() != 0 {
		t.Fatal("a wire never armed made its fault state")
	}
	dropped := 0
	p.Send(1, 2)
	p.Sever(func(int) { dropped++ })
	if p.x == nil || dropped != 1 {
		t.Fatalf("sever with a callback: cold block %v, %d dropped, want one", p.x != nil, dropped)
	}
	armed := NewPipe[int](2, 1).WithBitErrors(0, NewRNG(1), func(v int) int { return -v })
	if armed.x == nil {
		t.Fatal("a wire armed at bit-error rate 0 has no generator to retune")
	}
}

// TestPipeGrowsFromTwoCells: a wire that never holds more than two items
// never has more than two cells, and an idle one has none.
func TestPipeGrowsFromTwoCells(t *testing.T) {
	p := NewPipe[int](1, 1)
	if p.ring != nil {
		t.Fatal("a pipe that has carried nothing owns a ring")
	}
	for now := Cycle(0); now < 100; now++ {
		p.Send(now, int(now))
		p.Recv(now)
	}
	if len(p.ring) != 2 {
		t.Fatalf("latency-1 width-1 wire grew to %d cells, want 2", len(p.ring))
	}
}

// BenchmarkPipeSendRecv is the wire's rung of the ladder: one send and one
// take a cycle on a latency-4 link, the steady state of a busy data wire.
func BenchmarkPipeSendRecv(b *testing.B) {
	type flit struct {
		pkt      *int
		seq, typ int
		vc       int
		bad      bool
	}
	p := NewPipe[flit](4, 1)
	b.ReportAllocs()
	for now := Cycle(0); now < Cycle(b.N); now++ {
		p.Send(now, flit{seq: int(now)})
		p.Take(now)
	}
}
