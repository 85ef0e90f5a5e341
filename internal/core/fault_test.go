package core

import (
	"testing"

	"frfc/internal/noc"
	"frfc/internal/sim"
	"frfc/internal/topology"
)

// faultedConfig is the fast-control test configuration with data-flit faults.
func faultedConfig(rate float64) Config {
	c := fastControl()
	c.DataFaultRate = rate
	return c
}

// TestFaultInjectionKeepsTablesConsistent exercises the Section 5 error
// story end to end: with a percent-level flit loss rate under sustained
// load, the network must keep running (no reservation-table panics), deliver
// every packet that lost no flit, detect every packet that did, and drain
// completely.
func TestFaultInjectionKeepsTablesConsistent(t *testing.T) {
	mesh := topology.NewMesh(4)
	delivered := map[noc.PacketID]bool{}
	lost := map[noc.PacketID]bool{}
	droppedFrom := map[noc.PacketID]int{}
	hooks := &noc.Hooks{
		PacketDelivered: func(p *noc.Packet, now sim.Cycle) { delivered[p.ID] = true },
		PacketLost:      func(p *noc.Packet, now sim.Cycle) { lost[p.ID] = true },
		FlitDropped:     func(p *noc.Packet, now sim.Cycle) { droppedFrom[p.ID]++ },
	}
	net := New(mesh, faultedConfig(0.01), 15, hooks)

	rng := sim.NewRNG(99)
	now := sim.Cycle(0)
	const packets = 600
	for i := 0; i < packets; i++ {
		src := topology.NodeID(rng.Intn(mesh.N()))
		dst := topology.NodeID(rng.Intn(mesh.N() - 1))
		if dst >= src {
			dst++
		}
		net.Offer(&noc.Packet{ID: noc.PacketID(i), Src: int32(src), Dst: int32(dst), Len: 5, CreatedAt: now})
		for j := 0; j < 3; j++ {
			net.Tick(now)
			now++
		}
	}
	drainOrFail(t, net, now, 500000)
	c := net.Counts()
	droppedFlits, lostPackets := c.DroppedFlits, c.LostDetected
	if droppedFlits == 0 {
		t.Fatal("fault injection at 1% dropped nothing over 3000 flits")
	}
	if int64(len(lost)) != lostPackets {
		t.Fatalf("lost-packet hook fired %d times, network counted %d", len(lost), lostPackets)
	}
	for id := 0; id < packets; id++ {
		pid := noc.PacketID(id)
		switch {
		case droppedFrom[pid] > 0 && !lost[pid]:
			t.Errorf("packet %d lost %d flits but was never reported lost", pid, droppedFrom[pid])
		case droppedFrom[pid] == 0 && !delivered[pid]:
			t.Errorf("packet %d lost no flits but was not delivered", pid)
		case delivered[pid] && lost[pid]:
			t.Errorf("packet %d reported both delivered and lost", pid)
		}
	}
}

// TestFaultFreeRunReportsNoFaults: the counters stay zero without injection.
func TestFaultFreeRunReportsNoFaults(t *testing.T) {
	mesh := topology.NewMesh(4)
	_, hooks := newRecorder()
	net := New(mesh, fastControl(), 4, hooks)
	now := sim.Cycle(0)
	net.Offer(&noc.Packet{ID: 1, Src: 0, Dst: 15, Len: 5, CreatedAt: 0})
	for net.InFlightPackets() > 0 && now < 2000 {
		net.Tick(now)
		now++
	}
	if c := net.Counts(); c.DroppedFlits != 0 || c.LostDetected != 0 {
		t.Fatalf("fault-free run reported %d drops, %d losses", c.DroppedFlits, c.LostDetected)
	}
}

// TestHighFaultRateStillDrains pushes loss to 20%: nearly every multi-hop
// packet dies, yet the network must stay live and resolve everything.
func TestHighFaultRateStillDrains(t *testing.T) {
	mesh := topology.NewMesh(4)
	hooks := &noc.Hooks{}
	net := New(mesh, faultedConfig(0.20), 23, hooks)
	rng := sim.NewRNG(5)
	now := sim.Cycle(0)
	const packets = 300
	for i := 0; i < packets; i++ {
		src := topology.NodeID(rng.Intn(mesh.N()))
		dst := topology.NodeID(rng.Intn(mesh.N() - 1))
		if dst >= src {
			dst++
		}
		net.Offer(&noc.Packet{ID: noc.PacketID(i), Src: int32(src), Dst: int32(dst), Len: 5, CreatedAt: now})
		net.Tick(now)
		now++
	}
	drainOrFail(t, net, now, 500000)
	if net.Counts().LostDetected == 0 {
		t.Fatal("20% loss rate lost no packets")
	}
}

// TestFaultWithLateControlOn8x8 reproduces the case a smaller mesh rarely
// hits: a flit destroyed upstream whose control flit is itself delayed, so
// the reservation arrives after the flit's scheduled (and missed) arrival
// cycle. The reservation must dissolve without wedging or panicking.
func TestFaultWithLateControlOn8x8(t *testing.T) {
	mesh := topology.NewMesh(8)
	hooks := &noc.Hooks{}
	net := New(mesh, faultedConfig(0.002), 7, hooks)
	rng := sim.NewRNG(3)
	now := sim.Cycle(0)
	id := noc.PacketID(0)
	for ; now < 8000; now++ {
		for n := 0; n < mesh.N(); n++ {
			if rng.Bool(0.05) { // ~50% load
				dst := topology.NodeID(rng.Intn(mesh.N() - 1))
				if dst >= topology.NodeID(n) {
					dst++
				}
				id++
				net.Offer(&noc.Packet{ID: id, Src: int32(n), Dst: int32(dst), Len: 5, CreatedAt: now})
			}
		}
		net.Tick(now)
	}
	drainOrFail(t, net, now, 1000000)
	c := net.Counts()
	dropped, lost := c.DroppedFlits, c.LostDetected
	if dropped == 0 || lost == 0 {
		t.Fatalf("fault injection inactive: dropped=%d lost=%d", dropped, lost)
	}
}
