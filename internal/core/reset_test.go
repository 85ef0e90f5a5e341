package core

import (
	"testing"

	"frfc/internal/noc"
	"frfc/internal/sim"
	"frfc/internal/topology"
)

// TestResetClearsRecoveryState: a network reused under end-to-end retry starts
// with every recovery structure empty — the resolved set, the notification
// plane, each interface's awaiting, backoff and timer queues, each sink's
// reassembly state — and its ledger at zero, however far into a lossy run the
// previous user abandoned it. (Their growth within a run is ROADMAP 5(c).)
func TestResetClearsRecoveryState(t *testing.T) {
	cfg := fastControl()
	cfg.RetryLimit, cfg.RetryTimeout, cfg.DataFaultRate, cfg.Check = 4, 300, 0.05, true
	mesh := topology.NewMesh(4)
	net := New(mesh, cfg, 5, nil)
	src := &uniformSource{rng: sim.NewRNG(11), mesh: mesh, rate: 0.06}
	now := sim.Cycle(0)
	for ; now < 700; now++ {
		src.offer(net, now)
		net.Tick(now)
	}
	awaiting, backoff, timers, reassembly := 0, 0, 0, 0
	for id, ni := range net.nis {
		awaiting += len(ni.awaiting)
		backoff += len(ni.retryAt)
		timers += len(ni.timeouts)
		reassembly += len(net.sinks[id].state)
	}
	if len(net.resolved) == 0 || len(net.notifs) == 0 || awaiting == 0 || backoff == 0 || timers == 0 || reassembly == 0 {
		t.Fatalf("the lossy run left a recovery structure empty (resolved %d, notifs %d, awaiting %d, backoff %d, timers %d, reassembly %d): nothing to reset",
			len(net.resolved), len(net.notifs), awaiting, backoff, timers, reassembly)
	}
	if len(net.leadArrays) == 0 {
		t.Fatal("700 cycles of deliveries returned no lead array to the free list")
	}

	net.Reset(5, nil)
	if len(net.resolved) != 0 || len(net.notifs) != 0 {
		t.Errorf("resolved holds %d packets, notifs %d cycles", len(net.resolved), len(net.notifs))
	}
	if got := net.Counts(); got != (noc.Counts{}) {
		t.Errorf("ledger after Reset: %+v", got)
	}
	if net.InFlightPackets() != 0 || net.SourceQueueLen() != 0 || net.pendingRecovery() != 0 {
		t.Errorf("%d in flight, %d queued, %d recovery actions pending", net.InFlightPackets(), net.SourceQueueLen(), net.pendingRecovery())
	}
	for id, ni := range net.nis {
		if len(ni.awaiting) != 0 || len(ni.retryAt) != 0 || len(ni.timeouts) != 0 || !ni.idle() || ni.inFlight() != 0 || ni.dormant {
			t.Errorf("NI %d: awaiting=%d retryAt=%d timeouts=%d idle=%v in flight=%d dormant=%v",
				id, len(ni.awaiting), len(ni.retryAt), len(ni.timeouts), ni.idle(), ni.inFlight(), ni.dormant)
		}
		if s := net.sinks[id]; len(s.state) != 0 || s.expect.len() != 0 || !s.dataIn.Empty() {
			t.Errorf("sink %d: state=%d expected=%d", id, len(s.state), s.expect.len())
		}
		if r := net.routers[id]; r.pendingWork() != 0 || armed(r.cal) != 0 || r.inFlight() != 0 || r.dormant {
			t.Errorf("router %d: pending=%d armed=%d in flight=%d dormant=%v", id, r.pendingWork(), armed(r.cal), r.inFlight(), r.dormant)
		}
	}
	// The checker audits every calendar bit, credit and table from the first
	// cycle of the next run.
	delivered := 0
	net.Reset(6, &noc.Hooks{PacketDelivered: func(*noc.Packet, sim.Cycle) { delivered++ }})
	for now = 0; now < 300; now++ {
		src.offer(net, now)
		net.Tick(now)
	}
	if delivered == 0 {
		t.Fatal("the reused network delivered nothing through the new run's hooks")
	}
}
