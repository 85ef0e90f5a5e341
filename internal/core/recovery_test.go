package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"frfc/internal/noc"
	"frfc/internal/sim"
	"frfc/internal/topology"
)

func nan() float64 { return math.NaN() }

// drainOrFail ticks the network until every offered packet's fate is resolved,
// failing with a full state dump — naming the routers and interfaces holding
// stalled work — if that doesn't happen within limit cycles.
func drainOrFail(t *testing.T, net *Network, now, limit sim.Cycle) sim.Cycle {
	t.Helper()
	for net.InFlightPackets() > 0 && now < limit {
		net.Tick(now)
		now++
	}
	if got := net.InFlightPackets(); got != 0 {
		t.Fatalf("network failed to drain: %d unresolved packets at cycle %d\n%s", got, now, net.snapshot(now))
	}
	return now
}

// offerRandom injects n random-destination packets of the given length,
// spaced a few cycles apart, and returns the cycle reached.
func offerRandom(net *Network, mesh topology.Mesh, rng *sim.RNG, n, flits int, now sim.Cycle) sim.Cycle {
	for i := 0; i < n; i++ {
		src := topology.NodeID(rng.Intn(mesh.N()))
		dst := topology.NodeID(rng.Intn(mesh.N() - 1))
		if dst >= src {
			dst++
		}
		net.Offer(&noc.Packet{ID: noc.PacketID(i + 1), Src: int32(src), Dst: int32(dst), Len: int32(flits), CreatedAt: now})
		for j := 0; j < 3; j++ {
			net.Tick(now)
			now++
		}
	}
	return now
}

// TestControlFaultRecovery corrupts 5% of all inter-router control flits.
// Link-level retransmission recovers every one — control information is
// delayed, never lost — so every packet must still be delivered without any
// loss report, exercising the schedule-list path as delayed control flits are
// overtaken by their data.
func TestControlFaultRecovery(t *testing.T) {
	mesh := topology.NewMesh(4)
	cfg := fastControl()
	cfg.CtrlFaultRate = 0.05
	rec, hooks := newRecorder()
	net := New(mesh, cfg, 77, hooks)

	rng := sim.NewRNG(13)
	const packets = 300
	now := offerRandom(net, mesh, rng, packets, 5, 0)
	drainOrFail(t, net, now, 500000)

	if len(rec.delivered) != packets {
		t.Fatalf("delivered %d of %d packets under control faults", len(rec.delivered), packets)
	}
	if c := net.Counts(); c.DroppedFlits != 0 || c.LostDetected != 0 {
		t.Fatalf("control faults must not lose anything: dropped=%d lost=%d", c.DroppedFlits, c.LostDetected)
	}
	rs := net.Counts()
	if rs.CtrlCorrupted == 0 {
		t.Fatal("5% control fault rate corrupted nothing over ~1500 control flits")
	}
}

// TestRetryDeliversEverythingUnderDataLoss is the headline reliability claim:
// at 5% data-flit loss with end-to-end retry, every single packet is
// eventually delivered. The watchdog is armed and any wedge fails the test
// with its snapshot.
func TestRetryDeliversEverythingUnderDataLoss(t *testing.T) {
	mesh := topology.NewMesh(4)
	cfg := fastControl()
	cfg.DataFaultRate = 0.05
	cfg.RetryLimit = 10
	cfg.WatchdogCycles = 20000
	delivered := map[noc.PacketID]int{}
	hooks := &noc.Hooks{
		PacketDelivered: func(p *noc.Packet, now sim.Cycle) { delivered[p.ID]++ },
		PacketAbandoned: func(p *noc.Packet, now sim.Cycle) {
			t.Errorf("packet %d abandoned after %d attempts", p.ID, p.Attempts)
		},
		Wedged: func(now sim.Cycle, snapshot string) {
			t.Fatalf("watchdog tripped during retry stress:\n%s", snapshot)
		},
	}
	net := New(mesh, cfg, 41, hooks)

	rng := sim.NewRNG(8)
	const packets = 400
	now := offerRandom(net, mesh, rng, packets, 5, 0)
	drainOrFail(t, net, now, 2000000)

	if len(delivered) != packets {
		t.Fatalf("delivered %d distinct packets, want all %d", len(delivered), packets)
	}
	for pid, times := range delivered {
		if times != 1 {
			t.Errorf("packet %d delivered %d times", pid, times)
		}
	}
	rs := net.Counts()
	if rs.Retried == 0 || rs.DeliveredAfterRetry == 0 {
		t.Fatalf("5%% loss over %d packets exercised no retries: %+v", packets, rs)
	}
	if rs.Delivered != packets || rs.Abandoned != 0 {
		t.Fatalf("conservation violated: %+v", rs)
	}
}

// TestRetryWithCombinedFaults runs data loss and control corruption together
// with retry and a per-packet timeout armed, the full recovery stack at once.
func TestRetryWithCombinedFaults(t *testing.T) {
	mesh := topology.NewMesh(4)
	cfg := fastControl()
	cfg.DataFaultRate = 0.02
	cfg.CtrlFaultRate = 0.02
	cfg.RetryLimit = 10
	cfg.RetryTimeout = 5000
	cfg.WatchdogCycles = 20000
	rec, hooks := newRecorder()
	hooks.Wedged = func(now sim.Cycle, snapshot string) {
		t.Fatalf("watchdog tripped:\n%s", snapshot)
	}
	net := New(mesh, cfg, 19, hooks)

	rng := sim.NewRNG(29)
	const packets = 200
	now := offerRandom(net, mesh, rng, packets, 5, 0)
	drainOrFail(t, net, now, 2000000)

	if len(rec.delivered) != packets {
		t.Fatalf("delivered %d of %d under combined faults", len(rec.delivered), packets)
	}
	rs := net.Counts()
	if rs.CtrlCorrupted == 0 || rs.DroppedFlits == 0 {
		t.Fatalf("both fault planes should have fired: %+v", rs)
	}
	if rs.Abandoned != 0 {
		t.Fatalf("no packet should exhaust 10 retries at 2%% loss: %+v", rs)
	}
}

// TestRetryBudgetAbandons drives loss high enough that a one-retry budget
// cannot save every packet: the source must abandon the stragglers, and the
// packet conservation law offered == delivered + abandoned must hold exactly.
func TestRetryBudgetAbandons(t *testing.T) {
	mesh := topology.NewMesh(4)
	cfg := fastControl()
	cfg.DataFaultRate = 0.20
	cfg.RetryLimit = 1
	cfg.WatchdogCycles = 20000
	resolved := map[noc.PacketID]string{}
	hooks := &noc.Hooks{
		PacketDelivered: func(p *noc.Packet, now sim.Cycle) { resolved[p.ID] = "delivered" },
		PacketAbandoned: func(p *noc.Packet, now sim.Cycle) { resolved[p.ID] = "abandoned" },
		Wedged: func(now sim.Cycle, snapshot string) {
			t.Fatalf("watchdog tripped:\n%s", snapshot)
		},
	}
	net := New(mesh, cfg, 3, hooks)

	rng := sim.NewRNG(17)
	const packets = 300
	now := offerRandom(net, mesh, rng, packets, 5, 0)
	drainOrFail(t, net, now, 2000000)

	rs := net.Counts()
	if rs.Offered != rs.Delivered+rs.Abandoned {
		t.Fatalf("conservation violated: offered=%d delivered=%d abandoned=%d", rs.Offered, rs.Delivered, rs.Abandoned)
	}
	if rs.Abandoned == 0 {
		t.Fatal("20% loss with one retry abandoned nothing — test not exercising the budget")
	}
	if len(resolved) != packets {
		t.Fatalf("%d packets resolved via hooks, want %d", len(resolved), packets)
	}
}

// TestSpuriousTimeoutIsCancelled arms a retry timeout shorter than the
// fault-free flight time: the timer fires and schedules a retry, but the
// delivery acknowledgment lands before the backoff elapses, so the stale
// re-offer must be discarded and the packet delivered exactly once.
func TestSpuriousTimeoutIsCancelled(t *testing.T) {
	mesh := topology.NewMesh(4)
	cfg := fastControl()
	cfg.RetryLimit = 3
	cfg.RetryTimeout = 25 // corner-to-corner takes ~35 cycles
	deliveries := 0
	hooks := &noc.Hooks{
		PacketDelivered: func(p *noc.Packet, now sim.Cycle) { deliveries++ },
	}
	net := New(mesh, cfg, 21, hooks)
	net.Offer(&noc.Packet{ID: 1, Src: 0, Dst: 15, Len: 5, CreatedAt: 0})
	now := drainOrFail(t, net, 0, 5000)
	// Run past the backoff horizon to prove the cancelled retry never
	// re-enters the network.
	for end := now + 1000; now < end; now++ {
		net.Tick(now)
	}
	if deliveries != 1 {
		t.Fatalf("packet delivered %d times, want exactly 1", deliveries)
	}
	if rs := net.Counts(); rs.Retried != 0 {
		t.Fatalf("acknowledged packet was still retried: %+v", rs)
	}
}

// TestNIRetryStateMachine unit-tests the source interface's retry bookkeeping
// against duplicate and stale signals: NACK-then-timeout for one attempt must
// retry once, signals for superseded attempts are ignored, and the budget
// exhausts into abandonment.
func TestNIRetryStateMachine(t *testing.T) {
	cfg := fastControl()
	cfg.RetryLimit = 2
	cfg = cfg.WithDefaults() // fills RetryBackoffBase=64, NackLatency=16
	var abandoned int
	hooks := &noc.Hooks{
		PacketAbandoned: func(p *noc.Packet, now sim.Cycle) { abandoned++ },
	}
	ni := newNI(0, &cfg, sim.NewRNG(1), hooks)
	p := &noc.Packet{ID: 7, Len: 1}
	ni.offer(p)
	ni.queue = noc.SourceQueue{} // the packet is "in the network" for this unit test

	ni.loss(7, 0, 100)
	ni.loss(7, 0, 101) // duplicate (timeout after NACK): must not double-schedule
	if got := ni.pendingRecovery(); got != 1 {
		t.Fatalf("pendingRecovery = %d after duplicate loss, want 1", got)
	}
	ni.tickRetries(100 + 64)
	if ni.retried != 1 || ni.queue.Len() != 1 || p.Attempts != 1 {
		t.Fatalf("first retry: retried=%d queue=%d attempts=%d", ni.retried, ni.queue.Len(), p.Attempts)
	}
	ni.queue = noc.SourceQueue{}

	ni.loss(7, 0, 200) // stale: attempt 0 was superseded
	if got := ni.pendingRecovery(); got != 0 {
		t.Fatalf("stale loss scheduled a retry (pending=%d)", got)
	}
	ni.loss(7, 1, 200)
	ni.tickRetries(200 + 128) // backoff doubles per attempt
	if ni.retried != 2 || p.Attempts != 2 {
		t.Fatalf("second retry: retried=%d attempts=%d", ni.retried, p.Attempts)
	}
	ni.queue = noc.SourceQueue{}

	ni.loss(7, 2, 400) // budget (RetryLimit=2) exhausted
	if abandoned != 1 {
		t.Fatalf("abandoned = %d, want 1", abandoned)
	}
	if _, ok := ni.awaiting[7]; ok {
		t.Fatal("abandoned packet still awaiting acknowledgment")
	}
	ni.loss(7, 2, 500) // post-abandon signal must be a no-op
	if abandoned != 1 || ni.retried != 2 {
		t.Fatalf("post-abandon signal changed state: abandoned=%d retried=%d", abandoned, ni.retried)
	}

	q := &noc.Packet{ID: 8, Len: 1}
	ni.offer(q)
	ni.queue = noc.SourceQueue{}
	ni.ack(8)
	ni.loss(8, 0, 600) // loss after ack: stale, no retry
	if got := ni.pendingRecovery(); got != 0 {
		t.Fatalf("acknowledged packet scheduled a retry (pending=%d)", got)
	}
}

// TestFaultDeterminism: two networks built from the same seed and fed the
// same workload must agree on every fault, retry and delivery event —
// fault injection rides the seeded RNG tree, not global randomness.
func TestFaultDeterminism(t *testing.T) {
	run := func() (map[noc.PacketID]sim.Cycle, map[noc.PacketID]int, noc.Counts) {
		mesh := topology.NewMesh(4)
		cfg := fastControl()
		cfg.DataFaultRate = 0.03
		cfg.CtrlFaultRate = 0.02
		cfg.RetryLimit = 5
		delivered := map[noc.PacketID]sim.Cycle{}
		lost := map[noc.PacketID]int{}
		hooks := &noc.Hooks{
			PacketDelivered: func(p *noc.Packet, now sim.Cycle) { delivered[p.ID] = now },
			PacketLost:      func(p *noc.Packet, now sim.Cycle) { lost[p.ID]++ },
		}
		net := New(mesh, cfg, 123, hooks)
		rng := sim.NewRNG(55)
		now := offerRandom(net, mesh, rng, 200, 5, 0)
		for net.InFlightPackets() > 0 && now < 2000000 {
			net.Tick(now)
			now++
		}
		return delivered, lost, net.Counts()
	}
	d1, l1, r1 := run()
	d2, l2, r2 := run()
	if fmt.Sprintf("%v", d1) != fmt.Sprintf("%v", d2) {
		t.Fatal("delivery sets/cycles differ between identical seeded runs")
	}
	if fmt.Sprintf("%v", l1) != fmt.Sprintf("%v", l2) {
		t.Fatal("loss events differ between identical seeded runs")
	}
	if r1 != r2 {
		t.Fatalf("recovery stats differ:\n  %+v\n  %+v", r1, r2)
	}
	if r1.Delivered == 0 || r1.DroppedFlits == 0 || r1.CtrlCorrupted == 0 {
		t.Fatalf("determinism run exercised nothing: %+v", r1)
	}
}

// TestWatchdogNamesWedgedRouter manufactures a genuine wedge — every
// downstream control VC of router 0 is marked permanently owned, so its
// control flits can never be forwarded — and checks that the watchdog trips
// once, after the configured quiet period, with a snapshot naming the router.
func TestWatchdogNamesWedgedRouter(t *testing.T) {
	mesh := topology.NewMesh(4)
	cfg := fastControl()
	cfg.WatchdogCycles = 500
	var fires int
	var snap string
	var firedAt sim.Cycle
	hooks := &noc.Hooks{Wedged: func(now sim.Cycle, snapshot string) {
		fires++
		snap = snapshot
		firedAt = now
	}}
	net := New(mesh, cfg, 9, hooks)
	for p := range net.routers[0].ctrlOut {
		co := &net.routers[0].ctrlOut[p]
		if !co.exists {
			continue
		}
		for v := range co.owned {
			co.owned[v] = true
		}
	}
	net.Offer(&noc.Packet{ID: 1, Src: 0, Dst: 15, Len: 5, CreatedAt: 0})
	now := sim.Cycle(0)
	for ; now < 5000; now++ {
		net.Tick(now)
	}
	if fires != 1 {
		t.Fatalf("watchdog fired %d times over a persistent wedge, want exactly 1", fires)
	}
	if firedAt < cfg.WatchdogCycles {
		t.Fatalf("watchdog fired at cycle %d, before its %d-cycle quiet period", firedAt, cfg.WatchdogCycles)
	}
	for _, want := range []string{"wedged at cycle", "router 0", "stalled routers: [0]"} {
		if !strings.Contains(snap, want) {
			t.Errorf("snapshot missing %q:\n%s", want, snap)
		}
	}
}

// TestWatchdogStaysQuietOnHealthyRun: an armed watchdog must never fire
// across a normal run, its drain, and a long idle tail afterwards.
func TestWatchdogStaysQuietOnHealthyRun(t *testing.T) {
	mesh := topology.NewMesh(4)
	cfg := fastControl()
	cfg.WatchdogCycles = 200
	hooks := &noc.Hooks{Wedged: func(now sim.Cycle, snapshot string) {
		t.Fatalf("watchdog fired on a healthy run at cycle %d:\n%s", now, snapshot)
	}}
	net := New(mesh, cfg, 63, hooks)
	rng := sim.NewRNG(31)
	now := offerRandom(net, mesh, rng, 100, 5, 0)
	now = drainOrFail(t, net, now, 500000)
	for end := now + 2000; now < end; now++ {
		net.Tick(now)
	}
}
