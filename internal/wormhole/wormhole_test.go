package wormhole

import (
	"testing"

	"frfc/internal/noc"
	"frfc/internal/sim"
	"frfc/internal/topology"
	"frfc/internal/vcrouter"
)

func drive(t *testing.T, net noc.Network, packets int, seed uint64) map[noc.PacketID]sim.Cycle {
	t.Helper()
	delivered := map[noc.PacketID]sim.Cycle{}
	rng := sim.NewRNG(seed)
	mesh := topology.NewMesh(4)
	now := sim.Cycle(0)
	for i := 0; i < packets; i++ {
		src := topology.NodeID(rng.Intn(mesh.N()))
		dst := topology.NodeID(rng.Intn(mesh.N() - 1))
		if dst >= src {
			dst++
		}
		net.Offer(&noc.Packet{ID: noc.PacketID(i), Src: int32(src), Dst: int32(dst), Len: 4, CreatedAt: now})
		for j := 0; j < 5; j++ {
			net.Tick(now)
			now++
		}
	}
	for net.InFlightPackets() > 0 && now < 300000 {
		net.Tick(now)
		now++
	}
	if got := net.InFlightPackets(); got != 0 {
		t.Fatalf("%d packets undelivered", got)
	}
	return delivered
}

func TestWormholeDeliversEverything(t *testing.T) {
	mesh := topology.NewMesh(4)
	hooks := &noc.Hooks{}
	net := New(mesh, Config{BufferDepth: 8, LinkLatency: 4, CreditLatency: 1, LocalLatency: 1}, 3, hooks)
	drive(t, net, 200, 9)
}

// TestWormholeEquivalence: wormhole flow control is by construction a
// single-VC virtual-channel network; the two must behave identically for
// identical seeds.
func TestWormholeEquivalence(t *testing.T) {
	mesh := topology.NewMesh(4)
	deliveredA := map[noc.PacketID]sim.Cycle{}
	hooksA := &noc.Hooks{PacketDelivered: func(p *noc.Packet, now sim.Cycle) { deliveredA[p.ID] = now }}
	wh := New(mesh, Config{BufferDepth: 8, LinkLatency: 4, CreditLatency: 1, LocalLatency: 1}, 5, hooksA)

	deliveredB := map[noc.PacketID]sim.Cycle{}
	hooksB := &noc.Hooks{PacketDelivered: func(p *noc.Packet, now sim.Cycle) { deliveredB[p.ID] = now }}
	vc := vcrouter.New(mesh, vcrouter.Config{NumVCs: 1, BufPerVC: 8, LinkLatency: 4, CreditLatency: 1, LocalLatency: 1}, 5, hooksB)

	for _, net := range []noc.Network{wh, vc} {
		rng := sim.NewRNG(31)
		now := sim.Cycle(0)
		for i := 0; i < 150; i++ {
			src := topology.NodeID(rng.Intn(mesh.N()))
			dst := topology.NodeID(rng.Intn(mesh.N() - 1))
			if dst >= src {
				dst++
			}
			net.Offer(&noc.Packet{ID: noc.PacketID(i), Src: int32(src), Dst: int32(dst), Len: 4, CreatedAt: now})
			for j := 0; j < 5; j++ {
				net.Tick(now)
				now++
			}
		}
		for net.InFlightPackets() > 0 && now < 300000 {
			net.Tick(now)
			now++
		}
	}
	if len(deliveredA) != 150 || len(deliveredB) != 150 {
		t.Fatalf("deliveries: wormhole %d, vc(1) %d; want 150 each", len(deliveredA), len(deliveredB))
	}
	for id, ca := range deliveredA {
		if cb := deliveredB[id]; ca != cb {
			t.Fatalf("packet %d delivered at %d by wormhole but %d by vc(1)", id, ca, cb)
		}
	}
}

// TestWormholeLowerThroughputThanVC verifies the motivation for virtual
// channels ([Dally92], reviewed in the paper's Section 2): when a wormhole
// packet blocks, every channel it holds idles, so under saturating offered
// load a wormhole network accepts fewer flits than a virtual-channel network
// with the same total buffering.
func TestWormholeLowerThroughputThanVC(t *testing.T) {
	mesh := topology.NewMesh(8)
	accepted := func(build func(hooks *noc.Hooks) noc.Network) int64 {
		var flits int64
		const window = 6000
		hooks := &noc.Hooks{FlitEjected: func(now sim.Cycle) {
			if now >= 2000 && now < window {
				flits++
			}
		}}
		net := build(hooks)
		rng := sim.NewRNG(71)
		for now := sim.Cycle(0); now < window; now++ {
			for id := 0; id < mesh.N(); id++ {
				if rng.Bool(0.09) { // 0.45 flits/node/cycle offered, ~90% of capacity
					dst := topology.NodeID(rng.Intn(mesh.N() - 1))
					if dst >= topology.NodeID(id) {
						dst++
					}
					net.Offer(&noc.Packet{ID: noc.PacketID(now*64 + sim.Cycle(id)), Src: int32(id), Dst: int32(dst), Len: 5, CreatedAt: now})
				}
			}
			net.Tick(now)
		}
		return flits
	}
	wh := accepted(func(h *noc.Hooks) noc.Network {
		return New(mesh, Config{BufferDepth: 16, LinkLatency: 4, CreditLatency: 1, LocalLatency: 1}, 2, h)
	})
	vc := accepted(func(h *noc.Hooks) noc.Network {
		return vcrouter.New(mesh, vcrouter.Config{NumVCs: 2, BufPerVC: 8, LinkLatency: 4, CreditLatency: 1, LocalLatency: 1}, 2, h)
	})
	if wh >= vc {
		t.Errorf("wormhole accepted %d flits vs VC %d under saturating load; virtual channels should win", wh, vc)
	}
}
