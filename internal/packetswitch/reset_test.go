package packetswitch

import (
	"testing"

	"frfc/internal/noc"
	"frfc/internal/sim"
	"frfc/internal/topology"
)

// TestResetLeavesNothingBehind: after Reset a flooded network holds what a
// new one holds — every packet buffer empty with nothing under assembly,
// every channel free, every credit home and every wire empty — in both modes.
func TestResetLeavesNothingBehind(t *testing.T) {
	for _, mode := range []Mode{StoreAndForward, CutThrough} {
		mesh := topology.NewMesh(4)
		net := New(mesh, testConfig(mode), 21, nil)
		rng := sim.NewRNG(77)
		offered := 0
		for now := sim.Cycle(0); now < 300; now++ {
			for id := 0; id < mesh.N(); id++ {
				if rng.Bool(0.15) {
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
		buffered := 0
		for p := topology.Port(0); p < topology.NumPorts; p++ {
			used, _ := net.PoolUsage(5, p)
			buffered += used
		}
		if buffered == 0 || net.InFlightPackets() == 0 {
			t.Fatalf("%s: the flood left nothing to reset", mode)
		}

		net.Reset(21, nil)
		if net.InFlightPackets() != 0 || net.SourceQueueLen() != 0 {
			t.Fatalf("%s: %d packets in flight, %d queued", mode, net.InFlightPackets(), net.SourceQueueLen())
		}
		for id, r := range net.routers {
			for p := range r.in {
				if used, _ := r.poolUsage(topology.Port(p)); used != 0 {
					t.Errorf("%s router %d in %s: %d flits buffered", mode, id, topology.Port(p), used)
				}
				in, o := &r.in[p], &r.out[p]
				if !in.exists {
					continue
				}
				for s := range in.slots {
					if sl := &in.slots[s]; sl.occupied || sl.granted || sl.routed || len(sl.flits) != 0 {
						t.Errorf("%s router %d in %s slot %d: %+v", mode, id, topology.Port(p), s, *sl)
					}
				}
				if in.assembly != -1 || o.busyWith != -1 || o.credits != r.cfg.PacketBuffers || !o.data.Empty() {
					t.Errorf("%s router %d port %s: assembly=%d busyWith=%d credits=%d data in flight=%v",
						mode, id, topology.Port(p), in.assembly, o.busyWith, o.credits, !o.data.Empty())
				}
				if o.creditIn != nil && !o.creditIn.Empty() {
					t.Errorf("%s router %d out %s: credits in flight", mode, id, topology.Port(p))
				}
			}
			ni := net.nis[id]
			if ni.next != len(ni.current) || ni.credits != ni.cfg.PacketBuffers || !ni.data.Empty() || !ni.creditIn.Empty() {
				t.Errorf("%s NI %d: next=%d of %d credits=%d", mode, id, ni.next, len(ni.current), ni.credits)
			}
		}
	}
}
