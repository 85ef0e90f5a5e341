package core

import (
	"testing"

	"frfc/internal/noc"
	"frfc/internal/sim"
	"frfc/internal/topology"
)

// The occupancy words replaced three scans over small tables. Everything
// downstream of those scans — the arbitration shuffle's draws, the slot a
// flit is bound to, the order departures reach the crossbar and with it every
// hook call — depends on the order they enumerated in, so each word is held
// here to the scan it replaced, over random states.

// TestCandidateWordMatchesQueueScan: the candidates a router reads off its
// channel vectors, occ &^ fresh, are exactly the (port, vc) sequence of the
// scan over every queue — port-major, VC-minor, a queue counting when its
// front flit arrived before this cycle — as channel indices port·CtrlVCs + vc.
// Each cycle runs as a tick does: the cycle's arrivals, several to a cycle and
// at times two into one empty VC, then the candidates, then arbitration
// retiring some of them. At 70 VCs the 350 channels span six words.
func TestCandidateWordMatchesQueueScan(t *testing.T) {
	rng := sim.NewRNG(41)
	for _, vcs := range []int{1, 2, 4, 13, 70} {
		cfg := fastControl()
		cfg.CtrlVCs, cfg.DataBuffers = vcs, max(vcs, 6)
		cfg = cfg.WithDefaults()
		r := new(Router)
		r.init(&arena{}, 5, topology.NewMesh(4), &cfg) // an interior node: all five ports
		r.progress, r.leadArrays = new(int64), new(noc.LeadArrays)
		r.reset()
		for step := 0; step < 400; step++ {
			now := sim.Cycle(step)
			for k := rng.Intn(5); k > 0; k-- {
				p, v := topology.Port(rng.Intn(int(topology.NumPorts))), rng.Intn(vcs)
				for copies := 1 + rng.Intn(2); copies > 0; copies-- {
					if vc := &r.ctrlIn[p].vcs[v]; int(vc.n) < len(vc.q) {
						r.enqueue(now, p, &noc.ControlFlit{Packet: &noc.Packet{}, VC: int32(v)})
					}
				}
			}
			var want []uint16
			for p := range r.ctrlIn {
				for v := range r.ctrlIn[p].vcs {
					if vc := &r.ctrlIn[p].vcs[v]; vc.n > 0 && vc.front().arrivedAt < now {
						want = append(want, uint16(p*vcs+v))
					}
				}
			}
			r.candidates()
			if len(r.cands) != len(want) {
				t.Fatalf("%d VCs, step %d: words yield %v, the scan %v", vcs, step, r.cands, want)
			}
			for i := range want {
				if r.cands[i] != want[i] {
					t.Fatalf("%d VCs, step %d: words yield %v, the scan %v", vcs, step, r.cands, want)
				}
			}
			if ch := r.fresh.next(0); ch >= 0 {
				t.Fatalf("%d VCs, step %d: channel %d still fresh after the candidates were read", vcs, step, ch)
			}
			for _, ch := range r.cands {
				if rng.Bool(0.5) {
					r.popCtrl(now, &r.chans[ch])
				}
			}
		}
	}
}

// TestPoolWordMatchesSlotScans: an arriving flit is bound to the slot the
// first-free scan over the pool picked, and the flits due in a cycle leave in
// ascending slot order, as the scan over the pool released them.
func TestPoolWordMatchesSlotScans(t *testing.T) {
	rng := sim.NewRNG(43)
	for _, buffers := range []int{1, 6, 13, 64, 65, 130} {
		p := newInputPort(buffers, 32, nil, true)
		held := func(i int) bool { return p.pool[i].flit.Packet != nil }
		for step := 0; step < 600; step++ {
			now := sim.Cycle(step)
			// The departure scan: every held slot due now, lowest first.
			var want, got []int
			for i := range p.pool {
				if held(i) && p.pool[i].departAt == now {
					want = append(want, i)
				}
			}
			for slot := p.departing(now, 0); slot >= 0; slot = p.departing(now, slot+1) {
				got = append(got, slot)
				p.release(slot)
			}
			if len(got) != len(want) {
				t.Fatalf("%d buffers, cycle %d: departures from slots %v, the scan says %v", buffers, now, got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%d buffers, cycle %d: departures from slots %v, the scan says %v", buffers, now, got, want)
				}
			}
			if rng.Bool(0.2) {
				continue // an idle cycle on the link
			}
			// The first-free scan.
			wantSlot := -1
			for i := range p.pool {
				if !held(i) {
					wantSlot = i
					break
				}
			}
			p.reserve(now, now, now+1+sim.Cycle(rng.Intn(30)), topology.East, false)
			f := testFlit(noc.PacketID(step+1), 0)
			how, _ := p.arrive(now, &f)
			if wantSlot == -1 {
				if how != refused {
					t.Fatalf("%d buffers, cycle %d: a full pool took a flit", buffers, now)
				}
				p.expected.take(now) // the reservation it could not claim
				continue
			}
			if how != buffered || !held(wantSlot) || p.pool[wantSlot].flit.Packet != f.Packet {
				t.Fatalf("%d buffers, cycle %d: flit not bound to slot %d, the first free", buffers, now, wantSlot)
			}
		}
	}
}
