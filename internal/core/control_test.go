package core

import (
	"math"
	"testing"

	"frfc/internal/noc"
	"frfc/internal/routing"
	"frfc/internal/sim"
	"frfc/internal/topology"
)

// TestControlFlitsStayOrderedPerPacket verifies the wormhole discipline of
// the control network: a packet's control flits traverse every hop in order
// on one control VC, so body flits always find their head's routing-table
// entry. The sink's reassembly cross-check would panic on any violation;
// this test additionally tracks per-packet ejection-schedule order at a
// chosen destination.
func TestControlFlitsStayOrderedPerPacket(t *testing.T) {
	mesh := topology.NewMesh(4)
	type sched struct {
		seq int
		at  sim.Cycle
	}
	perPacket := map[noc.PacketID][]sched{}
	net := New(mesh, fastControl(), 31, &noc.Hooks{})
	// Read every sink's reassembly schedule after each cycle to observe it in
	// the order destination control flits build it: an entry is filed at
	// least two cycles ahead of its ejection, so none comes and goes unseen.
	seen := map[flitRef]bool{}
	observe := func() {
		for i := range net.sinks {
			net.sinks[i].expect.each(func(at sim.Cycle, e flitRef) {
				if !seen[e] {
					seen[e] = true
					perPacket[e.pkt.ID] = append(perPacket[e.pkt.ID], sched{seq: int(e.seq), at: at})
				}
			})
		}
	}
	rng := sim.NewRNG(12)
	now := sim.Cycle(0)
	const packets = 200
	for i := 0; i < packets; i++ {
		src := topology.NodeID(rng.Intn(mesh.N()))
		dst := topology.NodeID(rng.Intn(mesh.N() - 1))
		if dst >= src {
			dst++
		}
		net.Offer(&noc.Packet{ID: noc.PacketID(i + 1), Src: int32(src), Dst: int32(dst), Len: 5, CreatedAt: now})
		for j := 0; j < 3; j++ {
			net.Tick(now)
			observe()
			now++
		}
	}
	for ; net.InFlightPackets() > 0; now++ {
		if now > 500000 {
			t.Fatalf("%d packets still in flight", net.InFlightPackets())
		}
		net.Tick(now)
		observe()
	}
	for id, ss := range perPacket {
		if len(ss) != 5 {
			t.Fatalf("packet %d scheduled %d ejections, want 5", id, len(ss))
		}
		for i := 1; i < len(ss); i++ {
			// With d=1 and an in-order control worm, ejections are
			// scheduled in flit order.
			if ss[i].seq != ss[i-1].seq+1 {
				t.Fatalf("packet %d ejection schedule out of order: %v", id, ss)
			}
		}
	}
}

// TestYXRoutingWorksEndToEnd exercises the routing-function extension point:
// the whole network runs under YX routing instead of XY.
func TestYXRoutingWorksEndToEnd(t *testing.T) {
	mesh := topology.NewMesh(4)
	cfg := fastControl()
	cfg.Routing = routing.Function(func(m topology.Mesh, cur, dst topology.NodeID) topology.Port {
		cc, cd := m.Coord(cur), m.Coord(dst)
		switch {
		case cd.Y > cc.Y:
			return topology.South
		case cd.Y < cc.Y:
			return topology.North
		case cd.X > cc.X:
			return topology.East
		case cd.X < cc.X:
			return topology.West
		default:
			return topology.Local
		}
	})
	rec, hooks := newRecorder()
	net := New(mesh, cfg, 5, hooks)
	rng := sim.NewRNG(9)
	now := sim.Cycle(0)
	const packets = 150
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
	for len(rec.delivered) < packets && now < 300000 {
		net.Tick(now)
		now++
	}
	if len(rec.delivered) != packets {
		t.Fatalf("YX routing delivered %d of %d", len(rec.delivered), packets)
	}
}

// TestConfigValidation exercises every structural check.
func TestConfigValidation(t *testing.T) {
	base := fastControl()
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"no-buffers", func(c *Config) { c.DataBuffers = -1 }},
		{"buffers-past-lanes", func(c *Config) { c.DataBuffers = MaxDataBuffers + 1 }},
		{"no-ctrl-vcs", func(c *Config) { c.CtrlVCs = -1 }},
		{"no-leads", func(c *Config) { c.LeadsPerCtrl = -1 }},
		{"tiny-horizon", func(c *Config) { c.Horizon = 1 }},
		{"horizon-below-link", func(c *Config) { c.Horizon = 4; c.DataLinkLatency = 4 }},
		{"buffers-below-vcs", func(c *Config) { c.DataBuffers = 2; c.CtrlVCs = 4 }},
		{"wide-ctrl-small-pool", func(c *Config) { c.DataBuffers = 4; c.LeadsPerCtrl = 4; c.CtrlVCs = 2 }},
		{"negative-lead", func(c *Config) { c.LeadCycles = -1 }},
		{"lead-past-horizon", func(c *Config) { c.Horizon = 32; c.LeadCycles = 33 }},
		{"lead-overflows-cycle", func(c *Config) { c.LeadCycles = math.MaxInt64 }},
		{"negative-data-fault", func(c *Config) { c.DataFaultRate = -0.1 }},
		{"data-fault-above-one", func(c *Config) { c.DataFaultRate = 1.5 }},
		{"nan-data-fault", func(c *Config) { c.DataFaultRate = nan() }},
		{"negative-ctrl-fault", func(c *Config) { c.CtrlFaultRate = -0.1 }},
		{"ctrl-fault-above-one", func(c *Config) { c.CtrlFaultRate = 2 }},
		{"nan-ctrl-fault", func(c *Config) { c.CtrlFaultRate = nan() }},
		{"ctrl-fault-certain", func(c *Config) { c.CtrlFaultRate = 1 }},
		{"negative-retry-limit", func(c *Config) { c.RetryLimit = -1 }},
		{"negative-backoff", func(c *Config) { c.RetryBackoffBase = -1 }},
		{"negative-retry-timeout", func(c *Config) { c.RetryTimeout = -1 }},
		{"negative-nack-latency", func(c *Config) { c.NackLatency = -1 }},
		{"negative-watchdog", func(c *Config) { c.WatchdogCycles = -1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("invalid config %q did not panic", tc.name)
				}
			}()
			cfg := base
			tc.mutate(&cfg)
			cfg = cfg.WithDefaults()
			cfg.validate()
		})
	}
}
