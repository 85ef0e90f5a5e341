package core

import (
	"testing"

	"frfc/internal/noc"
	"frfc/internal/sim"
	"frfc/internal/topology"
)

type deliverRecorder struct {
	delivered map[noc.PacketID]sim.Cycle
}

func newRecorder() (*deliverRecorder, *noc.Hooks) {
	r := &deliverRecorder{delivered: make(map[noc.PacketID]sim.Cycle)}
	return r, &noc.Hooks{PacketDelivered: func(p *noc.Packet, now sim.Cycle) {
		r.delivered[p.ID] = now
	}}
}

// fastControl is the paper's fast-wire configuration scaled for tests.
func fastControl() Config {
	return Config{
		DataBuffers: 6, CtrlVCs: 2, CtrlBufPerVC: 3, Horizon: 32,
		LeadsPerCtrl: 1, CtrlFlitsPerCycle: 2,
		DataLinkLatency: 4, CtrlLinkLatency: 1, CreditLatency: 1, LocalLatency: 1,
	}
}

// leadingControl is the paper's same-speed-wires configuration with control
// flits injected lead cycles ahead of data.
func leadingControl(lead sim.Cycle) Config {
	c := fastControl()
	c.DataLinkLatency = 1
	c.LeadCycles = lead
	return c
}

func TestSinglePacketCrossesMesh(t *testing.T) {
	mesh := topology.NewMesh(4)
	rec, hooks := newRecorder()
	net := New(mesh, fastControl(), 1, hooks)

	p := &noc.Packet{ID: 1, Src: 0, Dst: 15, Len: 5, CreatedAt: 0}
	net.Offer(p)
	for now := sim.Cycle(0); now < 500 && len(rec.delivered) == 0; now++ {
		net.Tick(now)
	}
	got, ok := rec.delivered[1]
	if !ok {
		t.Fatal("packet was not delivered within 500 cycles")
	}
	if got < 25 || got > 80 {
		t.Errorf("corner-to-corner 5-flit latency = %d cycles, want within [25, 80]", got)
	}
	if net.InFlightPackets() != 0 {
		t.Errorf("InFlightPackets = %d after delivery, want 0", net.InFlightPackets())
	}
}

func TestFRFasterThanVCBaseLatency(t *testing.T) {
	// With fast control wires, flit reservation eliminates per-hop
	// routing/arbitration latency; an uncontended packet should beat the
	// VC per-hop cost of 1+4 cycles. Corner to corner on 4x4 = 6 hops.
	mesh := topology.NewMesh(4)
	rec, hooks := newRecorder()
	net := New(mesh, fastControl(), 2, hooks)
	net.Offer(&noc.Packet{ID: 1, Src: 0, Dst: 15, Len: 5, CreatedAt: 0})
	for now := sim.Cycle(0); now < 500 && len(rec.delivered) == 0; now++ {
		net.Tick(now)
	}
	if lat, ok := rec.delivered[1]; !ok || lat > 45 {
		t.Errorf("uncontended FR latency = %v (delivered=%v), want <= 45 cycles", lat, ok)
	}
}

func TestManyRandomPacketsAllDelivered(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"fast-control", fastControl()},
		{"leading-1", leadingControl(1)},
		{"leading-4", leadingControl(4)},
		{"all-or-nothing-d4", func() Config {
			c := fastControl()
			c.LeadsPerCtrl = 4
			c.AllOrNothing = true
			return c
		}()},
		{"wide-control-d4", func() Config {
			c := fastControl()
			c.LeadsPerCtrl = 4
			return c
		}()},
		{"eager-ledger", func() Config {
			c := fastControl()
			c.TrackEagerTransfers = true
			return c
		}()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mesh := topology.NewMesh(4)
			rec, hooks := newRecorder()
			net := New(mesh, tc.cfg, 7, hooks)

			rng := sim.NewRNG(42)
			const packets = 300
			now := sim.Cycle(0)
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
		})
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() map[noc.PacketID]sim.Cycle {
		mesh := topology.NewMesh(4)
		rec, hooks := newRecorder()
		net := New(mesh, leadingControl(1), 99, hooks)
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

func TestHeavyLoadSurvivesAndDrains(t *testing.T) {
	// Push the network well past saturation and verify the invariants
	// hold (no panics) and that it drains completely once offers stop.
	mesh := topology.NewMesh(4)
	rec, hooks := newRecorder()
	net := New(mesh, fastControl(), 21, hooks)
	rng := sim.NewRNG(77)
	now := sim.Cycle(0)
	offered := 0
	for ; now < 2000; now++ {
		for id := 0; id < mesh.N(); id++ {
			if rng.Bool(0.15) { // ~0.75 flits/node/cycle offered: way past capacity
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
		t.Fatalf("network failed to drain: %d packets still in flight after cycle %d (delivered %d of %d)",
			got, now, len(rec.delivered), offered)
	}
}

func TestBufferUsageWithinCapacity(t *testing.T) {
	mesh := topology.NewMesh(4)
	_, hooks := newRecorder()
	net := New(mesh, fastControl(), 11, hooks)
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

func TestDumpStateRendersBusyRouters(t *testing.T) {
	mesh := topology.NewMesh(4)
	_, hooks := newRecorder()
	net := New(mesh, fastControl(), 2, hooks)
	net.Offer(&noc.Packet{ID: 1, Src: 0, Dst: 15, Len: 5, CreatedAt: 0})
	for now := sim.Cycle(0); now < 6; now++ {
		net.Tick(now)
	}
	dump := net.DumpState()
	if dump == "" {
		t.Fatal("DumpState empty while a packet is in flight")
	}
	for now := sim.Cycle(6); now < 2000 && net.InFlightPackets() > 0; now++ {
		net.Tick(now)
	}
	if got := net.DumpState(); got != "" {
		t.Fatalf("DumpState not empty after drain:\n%s", got)
	}
}
