package circuit

import (
	"testing"

	"frfc/internal/metrics"
	"frfc/internal/noc"
	"frfc/internal/sim"
	"frfc/internal/topology"
	"frfc/internal/waterfall"
)

// runOne drives a single sampled packet through an otherwise idle network
// and returns its exact stage decomposition — the ground truth the
// closed-form model in internal/model must reproduce.
func runOne(t *testing.T, src, dst topology.NodeID, pktLen int) [waterfall.NumStages]int64 {
	t.Helper()
	mesh := topology.NewMesh(4)
	delivered := false
	wf := waterfall.New()
	wf.Strict = true
	hooks := &noc.Hooks{
		PacketDelivered: func(q *noc.Packet, now sim.Cycle) {
			delivered = true
			wf.Delivered(uint64(q.ID), now)
		},
	}
	net := New(mesh, Config{LinkLatency: 4, CtrlLinkLatency: 1, LocalLatency: 1}, 1, hooks)
	net.AttachProbe(&metrics.Probe{WF: wf})
	p := &noc.Packet{ID: 1, Src: int32(src), Dst: int32(dst), Len: int32(pktLen), CreatedAt: 0, Sampled: true}
	net.Offer(p)
	for now := sim.Cycle(0); now < 500 && !delivered; now++ {
		net.Tick(now)
	}
	if !delivered {
		t.Fatalf("packet %d->%d not delivered", src, dst)
	}
	return wf.Totals().Stages()
}

// TestSingleCircuitStageTiming pins the exact uncontended decomposition on
// 1- and 2-hop paths, documenting the substrate's cycle anatomy: the whole
// probe/ack round trip lands in reserve, the reserved path is pure wire, and
// the tail streams back to back.
func TestSingleCircuitStageTiming(t *testing.T) {
	for _, c := range []struct {
		src, dst topology.NodeID
		hops     int64
	}{
		{0, 1, 1}, {0, 2, 2}, {0, 5, 2},
	} {
		got := runOne(t, c.src, c.dst, 5)
		h := c.hops
		want := [waterfall.NumStages]int64{
			waterfall.StageReserve: 3*h + 3, // probe: (h+1)·ctrl wires + (h+1) decisions; ack: (h+1)·ctrl wires back
			waterfall.StageLink:    2 + 4*h, // two local links + h data links, zero router cycles
			waterfall.StageDrain:   4,       // L−1 back-to-back
		}
		if got != want {
			t.Errorf("%d->%d (h=%d): stages %v, want %v", c.src, c.dst, h, got, want)
		}
	}
}
