package circuit

import (
	"testing"

	"frfc/internal/noc"
	"frfc/internal/sim"
	"frfc/internal/topology"
)

// TestResetLeavesNothingBehind: after Reset a flooded network holds what a
// new one holds — no probe queued, no circuit standing, no packet under
// injection, every probe buffer credited and every wire empty. The circuit
// table matters most: its keys are packet ids, which the next run reuses.
func TestResetLeavesNothingBehind(t *testing.T) {
	mesh := topology.NewMesh(4)
	net := New(mesh, testConfig(), 21, nil)
	rng := sim.NewRNG(77)
	offered := 0
	for now := sim.Cycle(0); now < 300; now++ {
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
	standing := 0
	for _, r := range net.routers {
		standing += r.pendingWork()
	}
	if standing == 0 || net.InFlightPackets() == 0 {
		t.Fatal("the flood left nothing to reset")
	}

	net.Reset(21, nil)
	if net.InFlightPackets() != 0 || net.SourceQueueLen() != 0 {
		t.Fatalf("%d packets in flight, %d queued", net.InFlightPackets(), net.SourceQueueLen())
	}
	for id, r := range net.routers {
		if r.pendingWork() != 0 {
			t.Errorf("router %d: %d probes and circuits left", id, r.pendingWork())
		}
		for p := range r.out {
			o := &r.out[p]
			if !o.exists {
				continue
			}
			if o.owned || o.probeCredits != r.cfg.ProbeBuffers || !o.data.Empty() {
				t.Errorf("router %d out %s: owned=%v credits=%d data in flight=%v", id, topology.Port(p), o.owned, o.probeCredits, !o.data.Empty())
			}
			if o.probeOut != nil && !(o.probeOut.Empty() && o.probeCreditIn.Empty() && o.ackIn.Empty()) {
				t.Errorf("router %d out %s: control wires not empty", id, topology.Port(p))
			}
		}
		ni := net.nis[id]
		if ni.pendingWork() != 0 || ni.probeCredits != ni.cfg.ProbeBuffers || ni.acked || len(ni.flits) != 0 {
			t.Errorf("NI %d: pending=%d credits=%d acked=%v flits=%d", id, ni.pendingWork(), ni.probeCredits, ni.acked, len(ni.flits))
		}
		if !(ni.probeOut.Empty() && ni.probeCreditIn.Empty() && ni.ackIn.Empty() && ni.dataOut.Empty()) {
			t.Errorf("NI %d: wires not empty", id)
		}
	}
}
