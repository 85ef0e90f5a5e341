package vcrouter

import (
	"fmt"
	"testing"

	"frfc/internal/noc"
	"frfc/internal/sim"
	"frfc/internal/topology"
)

// TestDueCalendarMatchesPolling holds the calendar-driven network to a twin
// that polls every wire every cycle: before each tick, every node of the twin
// has the bit of every wire into its router, interface and sink set in its
// word for the cycle, so each component reads each of its wires, as they did
// before the calendar. After every cycle the calendar-driven network passes
// the calendar audit, and the two hold the same wires, channels, credits and
// random streams; by the end they have reported the same ejections and
// deliveries on the same cycles. Each configuration runs twice, the second
// time after a Reset to a new seed with the mesh still full, and then drains.
//
// The configurations cover the lineage — VC8 with bit errors on every link
// (so the hop CRC draws), pooled channels with interleaved sources, and
// wormhole — with wires of three latencies, so the calendar's ring wraps at
// different strides.
func TestDueCalendarMatchesPolling(t *testing.T) {
	vcBER := vc8()
	vcBER.BER, vcBER.CrcBits = 2e-3, 4
	for _, tc := range []struct {
		name string
		cfg  Config
		rate float64
	}{
		{"vc8-ber", vcBER, 0.08},
		{"vc16-pooled-interleaved", Config{NumVCs: 4, BufPerVC: 4, SharedPool: true, SourceInterleave: true,
			LinkLatency: 3, CreditLatency: 2, LocalLatency: 2}, 0.08},
		{"wormhole", Config{NumVCs: 1, BufPerVC: 8, LinkLatency: 2, CreditLatency: 3}, 0.05},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mesh := topology.NewMesh(4)
			var logs [2][]string
			hooks := func(i int) *noc.Hooks {
				return &noc.Hooks{
					PacketDelivered: func(p *noc.Packet, now sim.Cycle) {
						logs[i] = append(logs[i], fmt.Sprintf("delivered %d @%d", p.ID, now))
					},
					FlitEjected: func(now sim.Cycle) { logs[i] = append(logs[i], fmt.Sprintf("ejected @%d", now)) },
				}
			}
			cal, ref := New(mesh, tc.cfg, 7, hooks(0)), New(mesh, tc.cfg, 7, hooks(1))
			tick := func(now sim.Cycle) {
				for id, r := range ref.routers {
					cell := r.cal.Cell(now)
					ref.eachWire(id, func(bit uint32, _ sim.Cycle) { *cell |= bit })
				}
				cal.Tick(now)
				ref.Tick(now)
				if err := cal.audit(now); err != nil {
					t.Fatalf("cycle %d: %v", now, err)
				}
				if i := firstDiff(cal.fingerprint(), ref.fingerprint()); i >= 0 {
					t.Fatalf("cycle %d: the calendar-driven network and the polling one differ at word %d:\n%s\n%s", now, i, cal.DumpState(), ref.DumpState())
				}
			}
			now := sim.Cycle(0)
			for phase, seed := range []uint64{7, 8} {
				if phase > 0 {
					cal.Reset(seed, hooks(0))
					ref.Reset(seed, hooks(1))
				}
				srcs := [2]*uniformSource{}
				for i := range srcs {
					srcs[i] = &uniformSource{rng: sim.NewRNG(seed), mesh: mesh, rate: tc.rate}
				}
				for now = 0; now < 1000; now++ {
					srcs[0].offer(cal, now)
					srcs[1].offer(ref, now)
					tick(now)
				}
			}
			for end := now + 20000; cal.InFlightPackets() > 0; now++ {
				if now == end {
					t.Fatalf("%d packets still in flight 20000 cycles after the sources stopped", cal.InFlightPackets())
				}
				tick(now)
			}
			if len(logs[0]) != len(logs[1]) {
				t.Fatalf("%d events against the polling network's %d", len(logs[0]), len(logs[1]))
			}
			for i := range logs[0] {
				if logs[0][i] != logs[1][i] {
					t.Fatalf("event %d: %s, the polling network %s", i, logs[0][i], logs[1][i])
				}
			}
			if c := cal.Counts(); c.Delivered < 500 || tc.cfg.BER > 0 && c.CrcDetected == 0 {
				t.Fatalf("the walk saw little: counts %+v", c)
			}
		})
	}
}

// fingerprint lists what a cycle leaves behind in the network: the counts,
// every router's and interface's random stream (as the next draw a copy of it
// makes), channels, credits and ownership, and what every wire carries and
// when its slots fall due.
func (n *Network) fingerprint() []int64 {
	c := n.Counts()
	s := []int64{c.Offered, c.Delivered, c.CorruptedFlits, c.CrcDetected, c.CorruptEscapes}
	draw := func(rng sim.RNG) int64 { return int64(rng.Uint64()) }
	for id, r := range n.routers {
		x := n.nis[id]
		s = append(s, draw(*r.rng), draw(*x.rng), int64(x.queue.Len()), int64(x.active), int64(x.pool))
		for v := range x.credits {
			s = append(s, int64(x.credits[v]), int64(x.occ[v]), b2i(x.owned[v]))
		}
		for c := range r.chans {
			ch := &r.chans[c]
			s = append(s, int64(ch.n), int64(ch.head), int64(ch.route), int64(ch.outVC), b2i(ch.routed), b2i(ch.allocated))
		}
		for p := range r.in {
			in, o := &r.in[p], &r.out[p]
			if !in.exists {
				continue
			}
			s = append(s, int64(in.poolUsed), int64(o.pool))
			for v := range o.credits {
				s = append(s, int64(o.credits[v]), int64(o.occ[v]), b2i(o.owned[v]))
			}
			s = carried(s, in.data)
			s = carried(s, o.data)
			if o.creditIn != nil {
				s = carried(s, o.creditIn)
			}
		}
		s = carried(s, x.creditIn)
	}
	return s
}

// carried appends what wire w carries to s: how many items, and the cycles
// its slots fall due at.
func carried[T any](s []int64, w *sim.Pipe[T]) []int64 {
	n := 0
	w.Each(func(T) { n++ })
	s = append(s, int64(n))
	w.Arrivals(0, func(_ uint32, at sim.Cycle) { s = append(s, int64(at)) })
	return s
}

// b2i is 1 for true.
func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// firstDiff is the first index at which a and b differ, -1 if they do not.
func firstDiff(a, b []int64) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}
