package packetswitch

import (
	"testing"

	"frfc/internal/noc"
	"frfc/internal/sim"
	"frfc/internal/topology"
)

func testConfig(mode Mode) Config {
	return Config{Mode: mode, PacketBuffers: 2, MaxPacketLen: 8,
		LinkLatency: 4, CreditLatency: 1, LocalLatency: 1}
}

func runOne(t *testing.T, mode Mode, src, dst topology.NodeID, length int) sim.Cycle {
	t.Helper()
	mesh := topology.NewMesh(4)
	var deliveredAt sim.Cycle = -1
	hooks := &noc.Hooks{PacketDelivered: func(p *noc.Packet, now sim.Cycle) { deliveredAt = now }}
	net := New(mesh, testConfig(mode), 1, hooks)
	net.Offer(&noc.Packet{ID: 1, Src: int32(src), Dst: int32(dst), Len: int32(length), CreatedAt: 0})
	for now := sim.Cycle(0); now < 2000 && deliveredAt < 0; now++ {
		net.Tick(now)
	}
	if deliveredAt < 0 {
		t.Fatalf("%s: packet undelivered", mode)
	}
	return deliveredAt
}

func TestBothModesDeliver(t *testing.T) {
	for _, mode := range []Mode{StoreAndForward, CutThrough} {
		runOne(t, mode, 0, 15, 5)
	}
}

// TestCutThroughBeatsStoreAndForward: the defining property of virtual
// cut-through [KerKle79] — latency does not serialize per hop on the whole
// packet.
func TestCutThroughBeatsStoreAndForward(t *testing.T) {
	saf := runOne(t, StoreAndForward, 0, 15, 5)
	vct := runOne(t, CutThrough, 0, 15, 5)
	if vct >= saf {
		t.Fatalf("cut-through latency %d >= store-and-forward %d", vct, saf)
	}
	// Store-and-forward pays (packet serialization + link) per hop:
	// roughly hops*(L + tp + 1); cut-through pays hops*(tp + 1) + L.
	// Corner to corner is 6 hops on a 4x4 mesh.
	if saf < 60 {
		t.Errorf("store-and-forward latency %d implausibly low for 6 hops of 5-flit serialization", saf)
	}
}

// TestStoreAndForwardScalesWithPacketLength: SAF latency grows ~hops*extra
// per extra flit; cut-through grows ~1 per extra flit.
func TestStoreAndForwardScalesWithPacketLength(t *testing.T) {
	safShort := runOne(t, StoreAndForward, 0, 15, 2)
	safLong := runOne(t, StoreAndForward, 0, 15, 7)
	vctShort := runOne(t, CutThrough, 0, 15, 2)
	vctLong := runOne(t, CutThrough, 0, 15, 7)
	safGrowth := safLong - safShort
	vctGrowth := vctLong - vctShort
	// 5 extra flits over 7 hops (6 inter-router + ejection): SAF should
	// pay the serialization repeatedly; cut-through roughly once.
	if safGrowth < 3*vctGrowth {
		t.Errorf("SAF growth %d not clearly larger than cut-through growth %d", safGrowth, vctGrowth)
	}
	if vctGrowth > 12 {
		t.Errorf("cut-through growth %d for 5 extra flits; should pay serialization ~once", vctGrowth)
	}
}

func TestManyPacketsAllDeliveredBothModes(t *testing.T) {
	for _, mode := range []Mode{StoreAndForward, CutThrough} {
		mesh := topology.NewMesh(4)
		delivered := 0
		hooks := &noc.Hooks{PacketDelivered: func(p *noc.Packet, now sim.Cycle) { delivered++ }}
		net := New(mesh, testConfig(mode), 7, hooks)
		rng := sim.NewRNG(42)
		now := sim.Cycle(0)
		const packets = 300
		for i := 0; i < packets; i++ {
			src := topology.NodeID(rng.Intn(mesh.N()))
			dst := topology.NodeID(rng.Intn(mesh.N() - 1))
			if dst >= src {
				dst++
			}
			net.Offer(&noc.Packet{ID: noc.PacketID(i), Src: int32(src), Dst: int32(dst), Len: 5, CreatedAt: now})
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
			t.Fatalf("%s delivered %d of %d", mode, delivered, packets)
		}
	}
}

func TestHeavyLoadSurvivesAndDrains(t *testing.T) {
	for _, mode := range []Mode{StoreAndForward, CutThrough} {
		mesh := topology.NewMesh(4)
		hooks := &noc.Hooks{}
		net := New(mesh, testConfig(mode), 21, hooks)
		rng := sim.NewRNG(77)
		now := sim.Cycle(0)
		offered := 0
		for ; now < 2000; now++ {
			for id := 0; id < mesh.N(); id++ {
				if rng.Bool(0.15) {
					dst := topology.NodeID(rng.Intn(mesh.N() - 1))
					if dst >= topology.NodeID(id) {
						dst++
					}
					net.Offer(&noc.Packet{ID: noc.PacketID(offered), Src: int32(id), Dst: int32(dst), Len: 5, CreatedAt: now})
					offered++
				}
			}
			net.Tick(now)
		}
		for net.InFlightPackets() > 0 && now < 2000000 {
			net.Tick(now)
			now++
		}
		if got := net.InFlightPackets(); got != 0 {
			t.Fatalf("%s failed to drain: %d in flight", mode, got)
		}
	}
}

func TestOversizePacketPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("oversize packet did not panic")
		}
	}()
	mesh := topology.NewMesh(4)
	net := New(mesh, Config{MaxPacketLen: 4}, 1, nil)
	net.Offer(&noc.Packet{ID: 1, Src: 0, Dst: 5, Len: 9, CreatedAt: 0})
	for now := sim.Cycle(0); now < 100; now++ {
		net.Tick(now)
	}
}

func TestDeterminism(t *testing.T) {
	run := func(mode Mode) map[noc.PacketID]sim.Cycle {
		mesh := topology.NewMesh(4)
		delivered := map[noc.PacketID]sim.Cycle{}
		hooks := &noc.Hooks{PacketDelivered: func(p *noc.Packet, now sim.Cycle) { delivered[p.ID] = now }}
		net := New(mesh, testConfig(mode), 5, hooks)
		rng := sim.NewRNG(3)
		now := sim.Cycle(0)
		for i := 0; i < 120; i++ {
			src := topology.NodeID(rng.Intn(mesh.N()))
			dst := topology.NodeID(rng.Intn(mesh.N() - 1))
			if dst >= src {
				dst++
			}
			net.Offer(&noc.Packet{ID: noc.PacketID(i), Src: int32(src), Dst: int32(dst), Len: 4, CreatedAt: now})
			net.Tick(now)
			now++
		}
		for net.InFlightPackets() > 0 && now < 300000 {
			net.Tick(now)
			now++
		}
		return delivered
	}
	for _, mode := range []Mode{StoreAndForward, CutThrough} {
		a, b := run(mode), run(mode)
		for id, ca := range a {
			if b[id] != ca {
				t.Fatalf("%s: packet %d at %d vs %d across identical runs", mode, id, ca, b[id])
			}
		}
	}
}

func TestBufferUsageAccounting(t *testing.T) {
	mesh := topology.NewMesh(4)
	net := New(mesh, testConfig(CutThrough), 11, nil)
	rng := sim.NewRNG(13)
	now := sim.Cycle(0)
	for i := 0; i < 200; i++ {
		src := topology.NodeID(rng.Intn(mesh.N()))
		dst := topology.NodeID(rng.Intn(mesh.N() - 1))
		if dst >= src {
			dst++
		}
		net.Offer(&noc.Packet{ID: noc.PacketID(i), Src: int32(src), Dst: int32(dst), Len: 5, CreatedAt: now})
		net.Tick(now)
		now++
		for id := 0; id < mesh.N(); id++ {
			for p := topology.Port(0); p < topology.NumPorts; p++ {
				used, capacity := net.PoolUsage(topology.NodeID(id), p)
				if used < 0 || used > capacity {
					t.Fatalf("node %d port %s usage %d outside [0, %d]", id, p, used, capacity)
				}
			}
		}
	}
}
