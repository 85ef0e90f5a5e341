package core

import (
	"testing"

	"frfc/internal/noc"
	"frfc/internal/sim"
	"frfc/internal/topology"
)

// loadNetwork drives a network at a fixed Bernoulli packet rate for the given
// cycles and then drains it.
func loadNetwork(t *testing.T, net *Network, mesh topology.Mesh, rate float64, cycles sim.Cycle) {
	t.Helper()
	rng := sim.NewRNG(1234)
	now := sim.Cycle(0)
	id := noc.PacketID(0)
	for ; now < cycles; now++ {
		for n := 0; n < mesh.N(); n++ {
			if rng.Bool(rate) {
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
	for net.InFlightPackets() > 0 && now < cycles+500000 {
		net.Tick(now)
		now++
	}
	if got := net.InFlightPackets(); got != 0 {
		t.Fatalf("failed to drain: %d packets in flight", got)
	}
}

// TestLeadingControlExercisesScheduleList: with a 1-cycle lead on 1-cycle
// wires, data flits frequently catch their control flit (the paper's own
// observation in Section 4.4), so the schedule-list path must be taken.
func TestLeadingControlExercisesScheduleList(t *testing.T) {
	mesh := topology.NewMesh(4)
	net := New(mesh, leadingControl(1), 3, &noc.Hooks{})
	loadNetwork(t, net, mesh, 0.08, 3000)
	if parked := net.ParkedFlits(); parked == 0 {
		t.Fatal("leading control with a 1-cycle lead never parked a flit; the schedule list is untested by construction")
	}
}

// TestFastControlRarelyParks: with 4x-fast control wires and d=1, control
// flits should stay well ahead of data, so parking is rare to nonexistent
// at moderate load.
func TestFastControlRarelyParks(t *testing.T) {
	mesh := topology.NewMesh(4)
	net := New(mesh, fastControl(), 3, &noc.Hooks{})
	loadNetwork(t, net, mesh, 0.06, 3000)
	parked := net.ParkedFlits()
	// Some parking under bursts is fine; it must be a small fraction of
	// the ~ 0.06*16*3000*5 = 14k flits delivered.
	if parked > 1000 {
		t.Fatalf("fast control parked %d flits; control network is failing to stay ahead", parked)
	}
}

// TestControlBudgetRespected: no router may process more control flits per
// output per cycle than the control channel bandwidth. The pipe's width
// assertion enforces the link side; this test exercises a hot single output
// (tornado-like traffic through one column) and relies on the internal
// panics to catch violations.
func TestControlBudgetRespected(t *testing.T) {
	mesh := topology.NewMesh(4)
	net := New(mesh, fastControl(), 9, &noc.Hooks{})
	rng := sim.NewRNG(77)
	now := sim.Cycle(0)
	id := noc.PacketID(0)
	// Everyone in row 0 sends to the east end of the row: one hot path.
	for ; now < 2000; now++ {
		for x := 0; x < 3; x++ {
			if rng.Bool(0.25) {
				id++
				net.Offer(&noc.Packet{ID: id, Src: int32(x), Dst: 3, Len: 5, CreatedAt: now})
			}
		}
		net.Tick(now)
	}
	drainOrFail(t, net, now, 500000)
}
