package core

import (
	"testing"

	"frfc/internal/noc"
	"frfc/internal/sim"
	"frfc/internal/topology"
)

func testFlit(id noc.PacketID, seq int) noc.DataFlit {
	return noc.DataFlit{Packet: &noc.Packet{ID: id, Len: 8}, Seq: int32(seq)}
}

// noBypass fails the test if the bypass path fires.
func noBypass(t *testing.T) func(noc.DataFlit, topology.Port) {
	t.Helper()
	return func(f noc.DataFlit, out topology.Port) {
		t.Fatalf("unexpected bypass of %s toward %s", f, out)
	}
}

func TestInputPortReserveThenArriveThenDepart(t *testing.T) {
	p := newInputPort(3, 32, nil, false)
	p.reserve(0, 5, 9, topology.East, false)
	p.arriveFn(5, testFlit(1, 0), noBypass(t))
	if p.occupied != 1 {
		t.Fatalf("occupied = %d, want 1", p.occupied)
	}
	// Not due yet.
	p.departures(8, func(noc.DataFlit, topology.Port) {
		t.Fatal("departed early")
	})
	var gone bool
	p.departures(9, func(f noc.DataFlit, out topology.Port) {
		gone = true
		if out != topology.East || f.Packet.ID != 1 {
			t.Fatalf("wrong departure: %s via %s", f, out)
		}
	})
	if !gone || p.occupied != 0 {
		t.Fatalf("departure missing (gone=%v, occupied=%d)", gone, p.occupied)
	}
}

func TestInputPortBypass(t *testing.T) {
	p := newInputPort(1, 32, nil, false)
	p.reserve(0, 7, 7, topology.South, false) // depart the same cycle it arrives
	hit := false
	p.arriveFn(7, testFlit(2, 0), func(f noc.DataFlit, out topology.Port) {
		hit = true
		if out != topology.South {
			t.Fatalf("bypass toward %s, want S", out)
		}
	})
	if !hit {
		t.Fatal("bypass path not taken")
	}
	if p.occupied != 0 {
		t.Fatal("bypassed flit occupied a buffer")
	}
}

func TestInputPortParkThenSchedule(t *testing.T) {
	p := newInputPort(2, 32, nil, false)
	// Flit arrives before any reservation: parked on the schedule list.
	p.arriveFn(4, testFlit(3, 1), noBypass(t))
	if len(p.parked) != 1 || p.occupied != 1 {
		t.Fatal("flit not parked")
	}
	// The reservation signal claims it later.
	p.reserve(10, 4, 13, topology.West, false)
	if len(p.parked) != 0 {
		t.Fatal("schedule list entry not claimed")
	}
	departed := false
	p.departures(13, func(f noc.DataFlit, out topology.Port) {
		departed = true
		if out != topology.West || f.Seq != 1 {
			t.Fatalf("wrong departure %s via %s", f, out)
		}
	})
	if !departed {
		t.Fatal("parked flit never departed")
	}
}

func TestInputPortPoolExhaustionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("arrival into a full pool did not panic")
		}
	}()
	p := newInputPort(1, 32, nil, false)
	p.arriveFn(1, testFlit(1, 0), noBypass(t))
	p.arriveFn(2, testFlit(2, 0), noBypass(t))
}

func TestInputPortDuplicateReservationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate reservation did not panic")
		}
	}()
	p := newInputPort(2, 32, nil, false)
	p.reserve(0, 5, 9, topology.East, false)
	p.reserve(0, 5, 10, topology.West, false)
}

func TestInputPortPastReservationWithoutFlitPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("reservation for a past arrival with no parked flit did not panic")
		}
	}()
	p := newInputPort(2, 32, nil, false)
	p.reserve(10, 4, 13, topology.East, false)
}

func TestInputPortPending(t *testing.T) {
	p := newInputPort(4, 32, nil, false)
	p.reserve(0, 6, 9, topology.East, false)
	if p.pending() != 1 {
		t.Fatalf("pending = %d with one expectation, want 1", p.pending())
	}
	p.arriveFn(6, testFlit(1, 0), noBypass(t))
	if p.pending() != 1 {
		t.Fatalf("pending = %d with one resident, want 1", p.pending())
	}
	p.departures(9, func(noc.DataFlit, topology.Port) {})
	if p.pending() != 0 {
		t.Fatalf("pending = %d after departure, want 0", p.pending())
	}
}

// TestDeferredAllocationNeverFragments is the Figure 10 theorem as a
// property: binding buffers at arrival time (greedy interval coloring by
// left endpoint) always succeeds within the pool bound, so deferred
// allocation never needs a transfer. We replay many random residency sets
// whose max overlap is within capacity.
func TestDeferredAllocationNeverFragments(t *testing.T) {
	rng := sim.NewRNG(77)
	const buffers = 6
	for trial := 0; trial < 200; trial++ {
		// The replay reserves every arrival of the trial up front, up to
		// 120 cycles out, so the table's reach is widened to match.
		p := newInputPort(buffers, 160, nil, false)
		// Build random arrivals with random residencies, admitting an
		// arrival only if current+future overlap stays within bounds;
		// this mirrors what the reservation accounting enforces.
		occupancy := map[sim.Cycle]int{}
		type res struct{ ta, td sim.Cycle }
		var rs []res
		for i := 0; i < 40; i++ {
			ta := sim.Cycle(rng.Intn(120))
			td := ta + 1 + sim.Cycle(rng.Intn(12))
			ok := true
			for c := ta; c < td; c++ {
				if occupancy[c]+1 > buffers {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			for c := ta; c < td; c++ {
				occupancy[c]++
			}
			// Arrival cycles must be unique per input (one flit
			// per cycle per link).
			dup := false
			for _, r := range rs {
				if r.ta == ta {
					dup = true
					break
				}
			}
			if dup {
				for c := ta; c < td; c++ {
					occupancy[c]--
				}
				continue
			}
			rs = append(rs, res{ta, td})
		}
		for _, r := range rs {
			p.reserve(0, r.ta, r.td, topology.East, false)
		}
		// Replay in time order; arrive panics if ever out of buffers.
		for c := sim.Cycle(0); c <= 140; c++ {
			p.departures(c, func(noc.DataFlit, topology.Port) {})
			for _, r := range rs {
				if r.ta == c {
					p.arriveFn(c, testFlit(noc.PacketID(c), 0), func(noc.DataFlit, topology.Port) {})
				}
			}
		}
		if p.occupied != 0 {
			t.Fatalf("trial %d: %d flits never departed", trial, p.occupied)
		}
	}
}

func TestInputPortFaultTolerantLateReservation(t *testing.T) {
	// In fault-tolerant mode a reservation for a past arrival with no
	// parked flit (the flit was destroyed upstream) dissolves quietly.
	p := newInputPort(2, 32, nil, true)
	p.reserve(10, 4, 13, topology.East, false)
	if p.pending() != 0 {
		t.Fatalf("dissolved reservation left pending state: %d", p.pending())
	}
	p.departures(13, func(noc.DataFlit, topology.Port) {
		t.Fatal("a vanished flit departed")
	})
}
