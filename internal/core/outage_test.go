package core

import (
	"fmt"
	"strings"
	"testing"

	"frfc/internal/noc"
	"frfc/internal/sim"
	"frfc/internal/topology"
)

// fateRecorder tracks every packet's terminal outcome so the conservation law
// offered == delivered + abandoned + unreachable can be checked per packet.
type fateRecorder struct {
	fate map[noc.PacketID]string
	dup  []string
}

func newFateRecorder(t *testing.T) (*fateRecorder, *noc.Hooks) {
	r := &fateRecorder{fate: make(map[noc.PacketID]string)}
	set := func(id noc.PacketID, f string) {
		if prev, ok := r.fate[id]; ok {
			r.dup = append(r.dup, fmt.Sprintf("packet %d resolved twice: %s then %s", id, prev, f))
		}
		r.fate[id] = f
	}
	hooks := &noc.Hooks{
		PacketDelivered:   func(p *noc.Packet, now sim.Cycle) { set(p.ID, "delivered") },
		PacketAbandoned:   func(p *noc.Packet, now sim.Cycle) { set(p.ID, "abandoned") },
		PacketUnreachable: func(p *noc.Packet, now sim.Cycle) { set(p.ID, "unreachable") },
		Wedged: func(now sim.Cycle, snapshot string) {
			t.Fatalf("watchdog tripped at cycle %d:\n%s", now, snapshot)
		},
	}
	return r, hooks
}

func TestValidateFaultsRejections(t *testing.T) {
	mesh := topology.NewMesh(4)
	cases := []struct {
		name   string
		events []FaultEvent
		retry  bool
		want   string // substring of the error; "" means valid
	}{
		{"valid scenario", []FaultEvent{
			{At: 100, Kind: LinkDown, A: 5, B: 6},
			{At: 500, Kind: LinkUp, A: 5, B: 6},
			{At: 600, Kind: RouterDown, A: 9},
		}, true, ""},
		{"recovery not after failure", []FaultEvent{
			{At: 400, Kind: LinkDown, A: 5, B: 6},
			{At: 400, Kind: LinkUp, A: 5, B: 6},
		}, true, "strictly after"},
		{"node off the mesh", []FaultEvent{
			{At: 100, Kind: RouterDown, A: 16},
		}, true, "outside the"},
		{"link not adjacent", []FaultEvent{
			{At: 100, Kind: LinkDown, A: 0, B: 5},
		}, true, "not adjacent"},
		{"router down without retries", []FaultEvent{
			{At: 100, Kind: RouterDown, A: 5},
		}, false, "RetryLimit"},
		{"events out of order", []FaultEvent{
			{At: 500, Kind: LinkDown, A: 5, B: 6},
			{At: 100, Kind: LinkDown, A: 9, B: 10},
		}, true, "order"},
		{"link up without down", []FaultEvent{
			{At: 100, Kind: LinkUp, A: 5, B: 6},
		}, true, "not down"},
		{"double link down", []FaultEvent{
			{At: 100, Kind: LinkDown, A: 5, B: 6},
			{At: 200, Kind: LinkDown, A: 6, B: 5},
		}, true, "already down"},
		{"event before cycle one", []FaultEvent{
			{At: 0, Kind: LinkDown, A: 5, B: 6},
		}, true, "cycle"},
		{"link touching dead router", []FaultEvent{
			{At: 100, Kind: RouterDown, A: 5},
			{At: 200, Kind: LinkDown, A: 5, B: 6},
		}, true, "dead router"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := ValidateFaults(mesh, tc.events, tc.retry)
			if tc.want == "" {
				if err != nil {
					t.Fatalf("valid scenario rejected: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("invalid scenario accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestParseScenario(t *testing.T) {
	events, err := ParseScenario("down 5-6 @100; up 5-6 @600; kill 9 @800")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	want := []FaultEvent{
		{At: 100, Kind: LinkDown, A: 5, B: 6},
		{At: 600, Kind: LinkUp, A: 5, B: 6},
		{At: 800, Kind: RouterDown, A: 9},
	}
	if len(events) != len(want) {
		t.Fatalf("parsed %d events, want %d", len(events), len(want))
	}
	for i := range want {
		if events[i] != want[i] {
			t.Errorf("event %d = %+v, want %+v", i, events[i], want[i])
		}
	}
	for _, bad := range []string{"explode 5 @100", "down 5 @100", "down 5-6", "kill x @100", "down 5-6 100"} {
		if _, err := ParseScenario(bad); err == nil {
			t.Errorf("ParseScenario(%q) accepted garbage", bad)
		}
	}
}

// TestLinkOutageWithRecoveryDeliversEverything is the headline graceful-
// degradation claim: one link fails mid-run and is later repaired; the mesh
// stays connected throughout, so with retry enabled every single packet must
// be delivered — nothing abandoned, nothing unreachable, watchdog silent —
// with the invariant checker auditing every cycle.
func TestLinkOutageWithRecoveryDeliversEverything(t *testing.T) {
	mesh := topology.NewMesh(4)
	cfg := fastControl()
	cfg.RetryLimit = 8
	cfg.WatchdogCycles = 20000
	cfg.Check = true
	cfg.Faults = []FaultEvent{
		{At: 500, Kind: LinkDown, A: 5, B: 6},
		{At: 4000, Kind: LinkUp, A: 5, B: 6},
	}
	rec, hooks := newFateRecorder(t)
	net := New(mesh, cfg, 101, hooks)

	// A sustained directed flow across the doomed link guarantees a stream is
	// straddling the wire when the axe falls; random background traffic rides
	// along on the rest of the mesh.
	const crossers = 80
	for i := 0; i < crossers; i++ {
		net.Offer(&noc.Packet{ID: noc.PacketID(10000 + i), Src: 5, Dst: 6, Len: 5, CreatedAt: 0})
	}
	rng := sim.NewRNG(23)
	const background = 300
	now := offerRandom(net, mesh, rng, background, 5, 0)
	drainOrFail(t, net, now, 2000000)

	const packets = crossers + background
	rs := net.Counts()
	if rs.Delivered != packets || rs.Abandoned != 0 || rs.Unreachable != 0 {
		t.Fatalf("link outage with recovery must deliver everything: %+v", rs)
	}
	if rs.DroppedFlits == 0 {
		t.Fatal("the outage destroyed nothing — the scenario never bit")
	}
	if rs.Retried == 0 {
		t.Fatal("cut streams must recover through end-to-end retry, yet none fired")
	}
	if len(rec.dup) > 0 {
		t.Fatalf("double resolutions: %v", rec.dup)
	}
}

// TestPartitionReportsUnreachableNotAbandoned severs the whole column
// boundary between x=1 and x=2, splitting the mesh in half. Cross-partition
// packets must resolve as unreachable — fast-failed, not retried into
// abandonment — while same-side traffic keeps flowing.
func TestPartitionReportsUnreachableNotAbandoned(t *testing.T) {
	mesh := topology.NewMesh(4)
	cfg := fastControl()
	cfg.RetryLimit = 5
	cfg.WatchdogCycles = 20000
	cfg.Check = true
	cfg.Faults = []FaultEvent{
		{At: 500, Kind: LinkDown, A: 1, B: 2},
		{At: 500, Kind: LinkDown, A: 5, B: 6},
		{At: 500, Kind: LinkDown, A: 9, B: 10},
		{At: 500, Kind: LinkDown, A: 13, B: 14},
	}
	rec, hooks := newFateRecorder(t)
	net := New(mesh, cfg, 7, hooks)

	rng := sim.NewRNG(37)
	const packets = 300
	pkts := make(map[noc.PacketID]*noc.Packet, packets)
	now := sim.Cycle(0)
	for i := 0; i < packets; i++ {
		src := topology.NodeID(rng.Intn(mesh.N()))
		dst := topology.NodeID(rng.Intn(mesh.N() - 1))
		if dst >= src {
			dst++
		}
		p := &noc.Packet{ID: noc.PacketID(i + 1), Src: int32(src), Dst: int32(dst), Len: 5, CreatedAt: now}
		pkts[p.ID] = p
		net.Offer(p)
		for j := 0; j < 3; j++ {
			net.Tick(now)
			now++
		}
	}
	drainOrFail(t, net, now, 2000000)

	rs := net.Counts()
	if rs.Offered != rs.Delivered+rs.Abandoned+rs.Unreachable {
		t.Fatalf("conservation violated: %+v", rs)
	}
	if rs.Unreachable == 0 {
		t.Fatalf("a partition produced no unreachable packets: %+v", rs)
	}
	if rs.Abandoned != 0 {
		t.Fatalf("partitioned pairs must fail fast, not burn retries: %+v", rs)
	}
	side := func(n topology.NodeID) int {
		if mesh.Coord(n).X <= 1 {
			return 0
		}
		return 1
	}
	for id, fate := range rec.fate {
		p := pkts[id]
		if side(topology.NodeID(p.Src)) == side(topology.NodeID(p.Dst)) && fate != "delivered" {
			t.Errorf("same-side packet %d (%d->%d) ended %s", id, p.Src, p.Dst, fate)
		}
		if side(topology.NodeID(p.Src)) != side(topology.NodeID(p.Dst)) && fate == "abandoned" {
			t.Errorf("cross-partition packet %d (%d->%d) was abandoned, want unreachable", id, p.Src, p.Dst)
		}
	}
	if len(rec.fate) != packets {
		t.Fatalf("%d packets resolved via hooks, want %d", len(rec.fate), packets)
	}
}

// TestRouterOutageResolvesEveryPacket kills a mid-mesh router outright. The
// survivors route around the hole; only packets to or from the dead node are
// unreachable, and nothing hangs.
func TestRouterOutageResolvesEveryPacket(t *testing.T) {
	mesh := topology.NewMesh(4)
	cfg := fastControl()
	cfg.RetryLimit = 5
	cfg.WatchdogCycles = 20000
	cfg.Check = true
	cfg.Faults = []FaultEvent{{At: 500, Kind: RouterDown, A: 5}}
	rec, hooks := newFateRecorder(t)
	net := New(mesh, cfg, 55, hooks)

	rng := sim.NewRNG(41)
	const packets = 300
	pkts := make(map[noc.PacketID]*noc.Packet, packets)
	now := sim.Cycle(0)
	for i := 0; i < packets; i++ {
		src := topology.NodeID(rng.Intn(mesh.N()))
		dst := topology.NodeID(rng.Intn(mesh.N() - 1))
		if dst >= src {
			dst++
		}
		p := &noc.Packet{ID: noc.PacketID(i + 1), Src: int32(src), Dst: int32(dst), Len: 5, CreatedAt: now}
		pkts[p.ID] = p
		net.Offer(p)
		for j := 0; j < 3; j++ {
			net.Tick(now)
			now++
		}
	}
	drainOrFail(t, net, now, 2000000)

	rs := net.Counts()
	if rs.Offered != rs.Delivered+rs.Abandoned+rs.Unreachable {
		t.Fatalf("conservation violated: %+v", rs)
	}
	if rs.Unreachable == 0 {
		t.Fatalf("killing a router stranded no packets: %+v", rs)
	}
	for id, fate := range rec.fate {
		p := pkts[id]
		touchesDead := p.Src == 5 || p.Dst == 5
		if !touchesDead && fate == "unreachable" {
			t.Errorf("packet %d (%d->%d) avoids the dead router but ended unreachable", id, p.Src, p.Dst)
		}
	}
	if len(rec.fate) != packets {
		t.Fatalf("%d packets resolved via hooks, want %d", len(rec.fate), packets)
	}
}

// TestScenarioDeterminism runs the same outage scenario twice from one seed:
// every fate, cycle count and counter must match exactly — scheduled faults
// ride the configuration, not wall-clock or iteration order.
func TestScenarioDeterminism(t *testing.T) {
	run := func() (map[noc.PacketID]string, noc.Counts) {
		mesh := topology.NewMesh(4)
		cfg := fastControl()
		cfg.RetryLimit = 5
		cfg.Check = true
		cfg.Faults = []FaultEvent{
			{At: 300, Kind: LinkDown, A: 5, B: 6},
			{At: 450, Kind: RouterDown, A: 10},
			{At: 2500, Kind: LinkUp, A: 5, B: 6},
		}
		fates := make(map[noc.PacketID]string)
		hooks := &noc.Hooks{
			PacketDelivered:   func(p *noc.Packet, now sim.Cycle) { fates[p.ID] = fmt.Sprintf("d@%d", now) },
			PacketAbandoned:   func(p *noc.Packet, now sim.Cycle) { fates[p.ID] = fmt.Sprintf("a@%d", now) },
			PacketUnreachable: func(p *noc.Packet, now sim.Cycle) { fates[p.ID] = fmt.Sprintf("u@%d", now) },
		}
		net := New(mesh, cfg, 99, hooks)
		rng := sim.NewRNG(71)
		now := offerRandom(net, mesh, rng, 200, 5, 0)
		for net.InFlightPackets() > 0 && now < 2000000 {
			net.Tick(now)
			now++
		}
		return fates, net.Counts()
	}
	f1, r1 := run()
	f2, r2 := run()
	if r1 != r2 {
		t.Fatalf("recovery stats differ:\n  %+v\n  %+v", r1, r2)
	}
	if fmt.Sprintf("%v", f1) != fmt.Sprintf("%v", f2) {
		t.Fatal("per-packet fates differ between identical scenario runs")
	}
	if r1.Unreachable == 0 || r1.Delivered == 0 {
		t.Fatalf("determinism run exercised nothing: %+v", r1)
	}
}

// TestConservationFuzz kills a random link at a random cycle (sometimes
// repairing it later) across several seeds; whatever happens, every offered
// packet must end in exactly one of delivered, abandoned or unreachable, with
// the invariant checker on and the watchdog armed the whole time.
func TestConservationFuzz(t *testing.T) {
	mesh := topology.NewMesh(4)
	for seed := uint64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := sim.NewRNG(seed * 1000)
			a := topology.NodeID(rng.Intn(mesh.N()))
			var b topology.NodeID
			for p := topology.Port(0); p < topology.Local; p++ {
				if nb, ok := mesh.Neighbor(a, p); ok {
					b = nb
					if rng.Intn(2) == 0 {
						break
					}
				}
			}
			at := sim.Cycle(100 + rng.Intn(500))
			faults := []FaultEvent{{At: at, Kind: LinkDown, A: a, B: b}}
			if seed%2 == 0 {
				faults = append(faults, FaultEvent{At: at + 2000, Kind: LinkUp, A: a, B: b})
			}

			cfg := fastControl()
			cfg.RetryLimit = 4
			cfg.WatchdogCycles = 20000
			cfg.Check = true
			cfg.Faults = faults
			rec, hooks := newFateRecorder(t)
			net := New(mesh, cfg, seed, hooks)

			const packets = 150
			now := offerRandom(net, mesh, sim.NewRNG(seed+500), packets, 5, 0)
			drainOrFail(t, net, now, 2000000)

			rs := net.Counts()
			if rs.Offered != rs.Delivered+rs.Abandoned+rs.Unreachable {
				t.Fatalf("conservation violated (link %d-%d @%d): %+v", a, b, at, rs)
			}
			if len(rec.fate) != packets {
				t.Fatalf("%d packets resolved via hooks, want %d", len(rec.fate), packets)
			}
			if len(rec.dup) > 0 {
				t.Fatalf("double resolutions: %v", rec.dup)
			}
		})
	}
}
