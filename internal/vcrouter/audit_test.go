package vcrouter

import (
	"fmt"
	"testing"

	"frfc/internal/noc"
	"frfc/internal/sim"
	"frfc/internal/topology"
)

// audit recomputes everything the data path maintains incrementally instead
// of scanning — the occupancy and allocation words from the channels they
// summarise, the interfaces' active-slot counts from their slots — and holds
// every node's calendar to the wires it names (sim.Calendar.Audit) at the end
// of cycle now, reporting the first difference. It stands in for a
// Config.Check the package does not have yet.
func (n *Network) audit(now sim.Cycle) error {
	for id, r := range n.routers {
		occ, alloc := make([]uint64, len(r.occ)), make([]uint64, len(r.alloc))
		for p := range r.in {
			in := &r.in[p]
			buffered := 0
			for v := range in.vcs {
				vc := &in.vcs[v]
				w, bit := chanBit(p*len(in.vcs) + v)
				if vc.n > 0 {
					occ[w] |= bit
				}
				if vc.allocated {
					alloc[w] |= bit
				}
				if vc.n < 0 || int(vc.n) > len(vc.q) || (vc.q != nil && int(vc.head) >= len(vc.q)) {
					return fmt.Errorf("router %d in %s vc %d: ring head %d n %d of %d", id, topology.Port(p), v, vc.head, vc.n, len(vc.q))
				}
				buffered += int(vc.n)
			}
			if buffered != in.poolUsed {
				return fmt.Errorf("router %d in %s: channels hold %d flits, poolUsed says %d", id, topology.Port(p), buffered, in.poolUsed)
			}
		}
		for w := range occ {
			if occ[w] != r.occ[w] || alloc[w] != r.alloc[w] {
				return fmt.Errorf("router %d word %d: occ %b alloc %b, the channels say %b and %b", id, w, r.occ[w], r.alloc[w], occ[w], alloc[w])
			}
		}
		ni := n.nis[id]
		active := 0
		for s := range ni.slots {
			if ni.slots[s].active {
				active++
			}
		}
		if ni.active != active {
			return fmt.Errorf("NI %d: active %d, slots say %d", id, ni.active, active)
		}
		if err := r.cal.Audit(now, func(due func(uint32, sim.Cycle)) { n.eachWire(id, due) }); err != nil {
			return fmt.Errorf("node %d: %v", id, err)
		}
	}
	return nil
}

// eachWire calls due with the bit of every wire into node id's router,
// interface and sink, and each cycle the wire delivers at (sim.Pipe.Arrivals).
func (n *Network) eachWire(id int, due func(bit uint32, at sim.Cycle)) {
	r := n.routers[id]
	for p := topology.Port(0); p < topology.NumPorts; p++ {
		if w := r.in[p].data; w != nil {
			w.Arrivals(dataBit(p), due)
		}
		if w := r.out[p].creditIn; w != nil {
			w.Arrivals(creditBit(p), due)
		}
	}
	n.nis[id].creditIn.Arrivals(niBit, due)
	n.Sinks[id].Data.Arrivals(noc.SinkBit, due)
}

// TestAuditWalk checks the masks and calendars after every cycle of a loaded
// run, through warm-up, saturation-level bursts and the drain, for each way
// the package is used: VC8, pooled channels with interleaved sources,
// wormhole (one deep channel), and more channels than one mask word holds —
// 65, the Local input's last channel alone in the second word, and 350.
// The first loaded stretch ends in a Reset with the mesh full of flits: the
// audit must hold of what Reset leaves, which must read as an empty network,
// and the walk starts over on it. It runs under the race detector too;
// nothing in it counts allocations.
func TestAuditWalk(t *testing.T) {
	for _, tc := range []struct {
		name  string
		radix int
		cfg   Config
		rate  float64
	}{
		{"vc8", 4, vc8(), 0.07},
		{"vc16-pooled-interleaved", 4, Config{NumVCs: 4, BufPerVC: 4, SharedPool: true, SourceInterleave: true}, 0.07},
		{"wormhole", 4, Config{NumVCs: 1, BufPerVC: 8}, 0.04},
		{"vc13-one-channel-over", 3, Config{NumVCs: 13, BufPerVC: 1, SourceInterleave: true, LinkLatency: 1}, 0.2},
		{"vc70-six-words", 3, Config{NumVCs: 70, BufPerVC: 1, SourceInterleave: true, LinkLatency: 1}, 0.12},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mesh := topology.NewMesh(tc.radix)
			net := New(mesh, tc.cfg, 3, &noc.Hooks{})
			src := &uniformSource{rng: sim.NewRNG(17), mesh: mesh, rate: tc.rate}
			now, offered := sim.Cycle(0), 0
			for reused := false; ; reused = true {
				for now = 0; now < 2500; now++ {
					offered += src.offer(net, now)
					net.Tick(now)
					if err := net.audit(now); err != nil {
						t.Fatalf("cycle %d (reused %v): %v", now, reused, err)
					}
				}
				if reused {
					break
				}
				net.Reset(4, nil)
				if err := net.audit(now); err != nil {
					t.Fatalf("after Reset: %v", err)
				}
				if net.InFlightPackets() != 0 || net.SourceQueueLen() != 0 || net.DumpState() != "" {
					t.Fatalf("Reset left %d packets in flight, %d queued:\n%s", net.InFlightPackets(), net.SourceQueueLen(), net.DumpState())
				}
			}
			for end := now + 20000; net.InFlightPackets() > 0; now++ {
				if now == end {
					t.Fatalf("%d of %d packets still in flight 20000 cycles after the sources stopped:\n%s", net.InFlightPackets(), offered, net.DumpState())
				}
				net.Tick(now)
				if err := net.audit(now); err != nil {
					t.Fatalf("cycle %d (draining): %v", now, err)
				}
			}
			if offered < 500 {
				t.Fatalf("only %d packets offered; the walk saw little", offered)
			}
			// Some input whose channels straddle a word edge must have
			// used channels on both sides of it.
			nv, straddles, crossed := tc.cfg.NumVCs, false, false
			for p := 0; p < int(topology.NumPorts); p++ {
				edge := (p*nv/64 + 1) * 64
				if edge >= (p+1)*nv {
					continue
				}
				straddles = true
				below, above := false, false
				for _, r := range net.routers {
					for c := p * nv; c < (p+1)*nv; c++ {
						used := r.chans[c].q != nil
						below = below || (used && c < edge)
						above = above || (used && c >= edge)
					}
				}
				crossed = crossed || (below && above)
			}
			if straddles && !crossed {
				t.Fatal("no router used an input's channels on both sides of a word edge; the edge went unexercised")
			}
		})
	}
}
