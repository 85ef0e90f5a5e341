package circuit

import (
	"testing"

	"frfc/internal/noc"
	"frfc/internal/sim"
	"frfc/internal/topology"
)

func testConfig() Config {
	return Config{ProbeBuffers: 4, LinkLatency: 4, CtrlLinkLatency: 1, LocalLatency: 1}
}

func TestSingleMessageCrossesMesh(t *testing.T) {
	mesh := topology.NewMesh(4)
	var deliveredAt sim.Cycle = -1
	hooks := &noc.Hooks{PacketDelivered: func(p *noc.Packet, now sim.Cycle) { deliveredAt = now }}
	net := New(mesh, testConfig(), 1, hooks)
	net.Offer(&noc.Packet{ID: 1, Src: 0, Dst: 15, Len: 5, CreatedAt: 0})
	for now := sim.Cycle(0); now < 500 && deliveredAt < 0; now++ {
		net.Tick(now)
	}
	if deliveredAt < 0 {
		t.Fatal("message undelivered")
	}
	// Setup: ~2 cycles/hop probe + ack back; data: pure wire time.
	// 6 hops: setup ~24-30, data 6*4+2+4 = 30 -> total well under 80.
	if deliveredAt > 80 {
		t.Errorf("corner-to-corner latency %d implausibly high", deliveredAt)
	}
}

// TestLongMessageAmortizesSetup: the per-flit cost of circuit switching
// approaches one cycle once the circuit is up, so growing the message by
// 100 flits grows latency by ~100 cycles — and for very long messages the
// total beats store-and-forward by a wide margin.
func TestLongMessageAmortizesSetup(t *testing.T) {
	mesh := topology.NewMesh(4)
	at := func(length int) sim.Cycle {
		var d sim.Cycle = -1
		hooks := &noc.Hooks{PacketDelivered: func(p *noc.Packet, now sim.Cycle) { d = now }}
		net := New(mesh, testConfig(), 1, hooks)
		net.Offer(&noc.Packet{ID: 1, Src: 0, Dst: 15, Len: int32(length), CreatedAt: 0})
		for now := sim.Cycle(0); now < 5000 && d < 0; now++ {
			net.Tick(now)
		}
		if d < 0 {
			t.Fatalf("length-%d message undelivered", length)
		}
		return d
	}
	short := at(5)
	long := at(105)
	growth := long - short
	if growth < 98 || growth > 104 {
		t.Errorf("latency growth for 100 extra flits = %d, want ~100 (streaming at wire speed)", growth)
	}
}

func TestManyMessagesAllDelivered(t *testing.T) {
	mesh := topology.NewMesh(4)
	delivered := 0
	hooks := &noc.Hooks{PacketDelivered: func(p *noc.Packet, now sim.Cycle) { delivered++ }}
	net := New(mesh, testConfig(), 7, hooks)
	rng := sim.NewRNG(42)
	now := sim.Cycle(0)
	const packets = 300
	for i := 0; i < packets; i++ {
		src := topology.NodeID(rng.Intn(mesh.N()))
		dst := topology.NodeID(rng.Intn(mesh.N() - 1))
		if dst >= src {
			dst++
		}
		net.Offer(&noc.Packet{ID: noc.PacketID(i + 1), Src: int32(src), Dst: int32(dst), Len: 5, CreatedAt: now})
		for j := 0; j < 4; j++ {
			net.Tick(now)
			now++
		}
	}
	for net.InFlightPackets() > 0 && now < 500000 {
		net.Tick(now)
		now++
	}
	if delivered != packets {
		t.Fatalf("delivered %d of %d", delivered, packets)
	}
}

func TestHeavyLoadSurvivesAndDrains(t *testing.T) {
	mesh := topology.NewMesh(4)
	hooks := &noc.Hooks{}
	net := New(mesh, testConfig(), 21, hooks)
	rng := sim.NewRNG(77)
	now := sim.Cycle(0)
	offered := 0
	for ; now < 2000; now++ {
		for id := 0; id < mesh.N(); id++ {
			if rng.Bool(0.10) {
				dst := topology.NodeID(rng.Intn(mesh.N() - 1))
				if dst >= topology.NodeID(id) {
					dst++
				}
				offered++
				net.Offer(&noc.Packet{ID: noc.PacketID(offered), Src: int32(id), Dst: int32(dst), Len: 5, CreatedAt: now})
			}
		}
		net.Tick(now)
	}
	for net.InFlightPackets() > 0 && now < 2000000 {
		net.Tick(now)
		now++
	}
	if got := net.InFlightPackets(); got != 0 {
		t.Fatalf("failed to drain: %d in flight", got)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() map[noc.PacketID]sim.Cycle {
		mesh := topology.NewMesh(4)
		delivered := map[noc.PacketID]sim.Cycle{}
		hooks := &noc.Hooks{PacketDelivered: func(p *noc.Packet, now sim.Cycle) { delivered[p.ID] = now }}
		net := New(mesh, testConfig(), 5, hooks)
		rng := sim.NewRNG(3)
		now := sim.Cycle(0)
		for i := 0; i < 100; i++ {
			src := topology.NodeID(rng.Intn(mesh.N()))
			dst := topology.NodeID(rng.Intn(mesh.N() - 1))
			if dst >= src {
				dst++
			}
			net.Offer(&noc.Packet{ID: noc.PacketID(i + 1), Src: int32(src), Dst: int32(dst), Len: 4, CreatedAt: now})
			net.Tick(now)
			now++
		}
		for net.InFlightPackets() > 0 && now < 300000 {
			net.Tick(now)
			now++
		}
		return delivered
	}
	a, b := run(), run()
	for id, ca := range a {
		if b[id] != ca {
			t.Fatalf("packet %d at %d vs %d across identical runs", id, ca, b[id])
		}
	}
}
