package core

import (
	"reflect"
	"testing"

	"frfc/internal/noc"
	"frfc/internal/sim"
	"frfc/internal/topology"
)

// TestBitErrorsRecoveredByHopCRC: with the default 16-bit hop CRC essentially
// every corrupted flit is detected — data converts to the existing loss path
// and retries recover it, control is discarded and the schedule machinery
// absorbs the gap — so every packet must still be delivered exactly once.
func TestBitErrorsRecoveredByHopCRC(t *testing.T) {
	mesh := topology.NewMesh(4)
	cfg := fastControl()
	cfg.BER = 5e-3
	cfg.RetryLimit = 10
	cfg.WatchdogCycles = 20000
	delivered := map[noc.PacketID]int{}
	hooks := &noc.Hooks{
		PacketDelivered: func(p *noc.Packet, now sim.Cycle) { delivered[p.ID]++ },
		PacketAbandoned: func(p *noc.Packet, now sim.Cycle) {
			t.Errorf("packet %d abandoned after %d attempts", p.ID, p.Attempts)
		},
		Wedged: func(now sim.Cycle, snapshot string) {
			t.Fatalf("watchdog tripped under bit errors:\n%s", snapshot)
		},
	}
	net := New(mesh, cfg, 41, hooks)

	rng := sim.NewRNG(8)
	const packets = 300
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
	if rs.CorruptedFlits == 0 || rs.CrcDetected == 0 {
		t.Fatalf("BER %g over %d packets corrupted nothing: %+v", cfg.BER, packets, rs)
	}
	if rs.Delivered != packets || rs.Abandoned != 0 {
		t.Fatalf("conservation violated: %+v", rs)
	}
}

// TestWeakCrcEscapesCaughtByE2ECheck: a deliberately weak 1-bit hop CRC lets
// half the corrupted flits through, so escapes — including phantom
// reservations from escaped-corrupt control flits — must occur, and the
// end-to-end check plus slot reclamation must still turn every one into a
// successful delivery. The per-cycle invariant checker is armed, so a leaked
// reservation slot or credit panics the run.
func TestWeakCrcEscapesCaughtByE2ECheck(t *testing.T) {
	mesh := topology.NewMesh(4)
	cfg := fastControl()
	cfg.BER = 1e-2
	cfg.CrcBits = 1
	cfg.E2ECheck = true
	cfg.RetryLimit = 10
	cfg.WatchdogCycles = 20000
	cfg.Check = true
	rec, hooks := newRecorder()
	abandoned := 0
	hooks.PacketAbandoned = func(p *noc.Packet, now sim.Cycle) { abandoned++ }
	hooks.Wedged = func(now sim.Cycle, snapshot string) {
		t.Fatalf("watchdog tripped:\n%s", snapshot)
	}
	net := New(mesh, cfg, 99, hooks)

	rng := sim.NewRNG(5)
	const packets = 300
	now := offerRandom(net, mesh, rng, packets, 5, 0)
	drainOrFail(t, net, now, 2000000)

	rs := net.Counts()
	if rs.CorruptEscapes == 0 {
		t.Fatalf("1-bit CRC at BER %g produced no escapes: %+v", cfg.BER, rs)
	}
	if rs.PhantomReservations == 0 || rs.ReclaimedSlots == 0 {
		t.Fatalf("escaped control corruption hardened nothing: %+v", rs)
	}
	if len(rec.delivered) != packets || abandoned != 0 {
		t.Fatalf("delivered %d of %d (abandoned %d) despite the end-to-end check", len(rec.delivered), packets, abandoned)
	}
}

// TestE2ECheckOffAcceptsEscapes: with hop detection disabled (CrcBits < 0)
// and the end-to-end check off, corrupted *data* arrives and is silently
// accepted — every escape counts, nothing retries. Escaped *control*
// corruption is not free even then: it diverges the reservation tables, and
// the stranded data surfaces through reclamation as ordinary detected loss.
// The conservation law is delivered + lost == offered with zero retries.
func TestE2ECheckOffAcceptsEscapes(t *testing.T) {
	mesh := topology.NewMesh(4)
	cfg := fastControl()
	cfg.BER = 5e-3
	cfg.CrcBits = -1
	rec, hooks := newRecorder()
	lost := 0
	hooks.PacketLost = func(p *noc.Packet, now sim.Cycle) { lost++ }
	net := New(mesh, cfg, 7, hooks)

	rng := sim.NewRNG(3)
	const packets = 200
	now := offerRandom(net, mesh, rng, packets, 5, 0)
	drainOrFail(t, net, now, 500000)

	rs := net.Counts()
	if len(rec.delivered)+lost != packets {
		t.Fatalf("conservation broken: delivered %d + lost %d != offered %d", len(rec.delivered), lost, packets)
	}
	if rs.CorruptedFlits == 0 {
		t.Fatal("BER exercised nothing")
	}
	if rs.CrcDetected != 0 {
		t.Fatalf("disabled CRC still detected %d flits", rs.CrcDetected)
	}
	if rs.CorruptEscapes == 0 {
		t.Fatalf("no escapes with all checks off: %+v", rs)
	}
	if rs.Retried != 0 {
		t.Fatalf("silent acceptance must not retry: %+v", rs)
	}
}

// TestBitErrorDeterminism: two networks with identical configuration and seed
// must agree on every recovery counter, corruption included — the foundation
// of the harness's bit-identical-across-workers guarantee.
func TestBitErrorDeterminism(t *testing.T) {
	run := func() noc.Counts {
		mesh := topology.NewMesh(4)
		cfg := fastControl()
		cfg.BER = 1e-2
		cfg.CrcBits = 2
		cfg.E2ECheck = true
		cfg.RetryLimit = 8
		cfg.WatchdogCycles = 20000
		_, hooks := newRecorder()
		net := New(mesh, cfg, 123, hooks)
		rng := sim.NewRNG(77)
		now := offerRandom(net, mesh, rng, 150, 5, 0)
		drainOrFail(t, net, now, 2000000)
		return net.Counts()
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("identical seeds diverged:\nfirst:  %+v\nsecond: %+v", a, b)
	}
	if a.CorruptedFlits == 0 || a.CorruptEscapes == 0 {
		t.Fatalf("determinism run exercised no corruption: %+v", a)
	}
}
