package vcrouter

import (
	"testing"

	"frfc/internal/noc"
	"frfc/internal/routing"
	"frfc/internal/sim"
	"frfc/internal/topology"
)

// deliverRecorder collects delivered packets for assertions.
type deliverRecorder struct {
	delivered map[noc.PacketID]sim.Cycle
}

func newRecorder() (*deliverRecorder, *noc.Hooks) {
	r := &deliverRecorder{delivered: make(map[noc.PacketID]sim.Cycle)}
	return r, &noc.Hooks{PacketDelivered: func(p *noc.Packet, now sim.Cycle) {
		r.delivered[p.ID] = now
	}}
}

func TestSinglePacketCrossesMesh(t *testing.T) {
	mesh := topology.NewMesh(4)
	rec, hooks := newRecorder()
	net := New(mesh, Config{NumVCs: 2, BufPerVC: 4, LinkLatency: 4, CreditLatency: 1, LocalLatency: 1}, 1, hooks)

	p := &noc.Packet{ID: 1, Src: 0, Dst: 15, Len: 5, CreatedAt: 0}
	net.Offer(p)
	for now := sim.Cycle(0); now < 500 && len(rec.delivered) == 0; now++ {
		net.Tick(now)
	}
	got, ok := rec.delivered[1]
	if !ok {
		t.Fatal("packet was not delivered within 500 cycles")
	}
	// 6 hops corner to corner on a 4x4 mesh; per hop 1 (router) + 4 (link)
	// cycles, plus injection/ejection links and 4 cycles of serialization
	// for the trailing flits. The exact constant is a property of the
	// model; assert a sane window rather than a magic number.
	if got < 30 || got > 80 {
		t.Errorf("corner-to-corner 5-flit latency = %d cycles, want within [30, 80]", got)
	}
	if net.InFlightPackets() != 0 {
		t.Errorf("InFlightPackets = %d after delivery, want 0", net.InFlightPackets())
	}
}

func TestManyRandomPacketsAllDelivered(t *testing.T) {
	mesh := topology.NewMesh(4)
	rec, hooks := newRecorder()
	net := New(mesh, Config{NumVCs: 2, BufPerVC: 4, LinkLatency: 4, CreditLatency: 1, LocalLatency: 1}, 7, hooks)

	rng := sim.NewRNG(42)
	const packets = 400
	now := sim.Cycle(0)
	for i := 0; i < packets; i++ {
		src := topology.NodeID(rng.Intn(mesh.N()))
		dst := topology.NodeID(rng.Intn(mesh.N() - 1))
		if dst >= src {
			dst++
		}
		net.Offer(&noc.Packet{ID: noc.PacketID(i), Src: int32(src), Dst: int32(dst), Len: 5, CreatedAt: now})
		// Space offers out a little so the source queues drain.
		for j := 0; j < 4; j++ {
			net.Tick(now)
			now++
		}
	}
	for len(rec.delivered) < packets && now < 200000 {
		net.Tick(now)
		now++
	}
	if len(rec.delivered) != packets {
		t.Fatalf("delivered %d of %d packets", len(rec.delivered), packets)
	}
	if got := net.InFlightPackets(); got != 0 {
		t.Errorf("InFlightPackets = %d after drain, want 0", got)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() map[noc.PacketID]sim.Cycle {
		mesh := topology.NewMesh(4)
		rec, hooks := newRecorder()
		net := New(mesh, Config{NumVCs: 2, BufPerVC: 4, LinkLatency: 1, CreditLatency: 1, LocalLatency: 1}, 99, hooks)
		rng := sim.NewRNG(5)
		now := sim.Cycle(0)
		for i := 0; i < 100; i++ {
			src := topology.NodeID(rng.Intn(mesh.N()))
			dst := topology.NodeID(rng.Intn(mesh.N() - 1))
			if dst >= src {
				dst++
			}
			net.Offer(&noc.Packet{ID: noc.PacketID(i), Src: int32(src), Dst: int32(dst), Len: 3, CreatedAt: now})
			net.Tick(now)
			now++
		}
		for net.InFlightPackets() > 0 && now < 100000 {
			net.Tick(now)
			now++
		}
		return rec.delivered
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("runs delivered different packet counts: %d vs %d", len(a), len(b))
	}
	for id, ca := range a {
		if cb := b[id]; ca != cb {
			t.Fatalf("packet %d delivered at cycle %d in run A but %d in run B", id, ca, cb)
		}
	}
}

func TestSharedPoolDeliversEverything(t *testing.T) {
	mesh := topology.NewMesh(4)
	rec, hooks := newRecorder()
	net := New(mesh, Config{NumVCs: 2, BufPerVC: 4, SharedPool: true, LinkLatency: 4, CreditLatency: 1, LocalLatency: 1, Routing: routing.XY}, 3, hooks)
	now := sim.Cycle(0)
	const packets = 200
	rng := sim.NewRNG(8)
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
	for len(rec.delivered) < packets && now < 200000 {
		net.Tick(now)
		now++
	}
	if len(rec.delivered) != packets {
		t.Fatalf("shared-pool config delivered %d of %d packets", len(rec.delivered), packets)
	}
}

func TestBufferUsageWithinCapacity(t *testing.T) {
	mesh := topology.NewMesh(4)
	_, hooks := newRecorder()
	net := New(mesh, Config{NumVCs: 2, BufPerVC: 4, LinkLatency: 4, CreditLatency: 1, LocalLatency: 1}, 11, hooks)
	rng := sim.NewRNG(13)
	now := sim.Cycle(0)
	for i := 0; i < 300; i++ {
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
					t.Fatalf("node %d port %s buffer usage %d outside [0, %d]", id, p, used, capacity)
				}
			}
		}
	}
}
