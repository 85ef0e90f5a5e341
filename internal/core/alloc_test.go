package core

import (
	"runtime"
	"runtime/debug"
	"testing"

	"frfc/internal/noc"
	"frfc/internal/sim"
	"frfc/internal/topology"
)

// warmedMesh4 returns a 4×4 FR network of the given configuration that has
// carried uniform traffic at the given packet rate for 3000 cycles — long enough that every pipe, queue,
// free list and schedule has reached its working size — the source that fed
// it, and the next cycle to tick.
func warmedMesh4(cfg Config, rate float64) (*Network, *uniformSource, sim.Cycle) {
	mesh := topology.NewMesh(4)
	net := New(mesh, cfg, 5, &noc.Hooks{})
	src := &uniformSource{rng: sim.NewRNG(11), mesh: mesh, rate: rate}
	now := sim.Cycle(0)
	for ; now < 3000; now++ {
		src.offer(net, now)
		net.Tick(now)
	}
	return net, src, now
}

// TestSteadyStateTickAllocatesNothing is the allocation gate of the FR hot
// path: with the sources switched off mid-flight, the cycles that carry the
// remaining control and data flits hop by hop to their sinks allocate nothing
// at all.
func TestSteadyStateTickAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates; run without -race")
	}
	wide := fastControl()
	wide.LeadsPerCtrl, wide.AllOrNothing = 4, true
	for name, cfg := range map[string]Config{"d1-per-flit": fastControl(), "d4-all-or-nothing": wide} {
		t.Run(name, func(t *testing.T) {
			net, _, now := warmedMesh4(cfg, 0.08)
			inFlight := net.InFlightPackets()
			if inFlight < 8 {
				t.Fatalf("only %d packets in flight when the sources stop; the gate would measure an idle network", inFlight)
			}
			allocs := testing.AllocsPerRun(40, func() {
				net.Tick(now)
				now++
			})
			if delivered := inFlight - net.InFlightPackets(); delivered < 8 {
				t.Fatalf("the measured window delivered %d packets; it did not carry traffic", delivered)
			}
			if allocs != 0 {
				t.Fatalf("Network.Tick allocated %.0f objects a cycle with flits in flight, want 0", allocs)
			}
		})
	}
}

// TestLoadedTickAllocatesPerPacketOnly: under load a warmed network allocates
// nothing per packet — the interface packetises into its own scratch, lead
// arrays come back from the destinations' routers, the source carves packets
// from arrays — and only the odd queue or free list reaching a new high-water
// mark is left: a quarter of an object a packet at the very most.
func TestLoadedTickAllocatesPerPacketOnly(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates; run without -race")
	}
	net, src, now := warmedMesh4(fastControl(), 0.08)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	offered := 0
	for end := now + 2000; now < end; now++ {
		offered += src.offer(net, now)
		net.Tick(now)
	}
	runtime.ReadMemStats(&after)
	perPacket := float64(after.Mallocs-before.Mallocs) / float64(offered)
	t.Logf("%d packets offered, %.2f mallocs a packet", offered, perPacket)
	if offered < 1000 {
		t.Fatalf("only %d packets offered; the window is not loaded", offered)
	}
	if perPacket > 0.25 {
		t.Fatalf("%.2f mallocs per offered packet, want at most 0.25", perPacket)
	}
}

// TestDrainedMeshSleepsAndWakes is the leak gate of the dormancy bookkeeping.
// Once a loaded mesh has drained with its sources off, every router,
// interface and sink must be dormant with nothing on its node's calendar and
// nothing on its wires — a component stuck
// awake is a silent performance leak, one stuck asleep with work inside is a
// wedge — and a dormant cycle must allocate nothing. Offering again from that
// state must wake what the packets touch, deliver every one of them, allocate
// no more per packet than a mesh that never slept, and let it all go back to
// sleep.
func TestDrainedMeshSleepsAndWakes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates; run without -race")
	}
	net, src, now := warmedMesh4(fastControl(), 0.08)
	drain := func() {
		t.Helper()
		for end := now + 2000; net.InFlightPackets() > 0; now++ {
			if now == end {
				t.Fatalf("%d packets still in flight 2000 cycles after the sources stopped:\n%s", net.InFlightPackets(), net.DumpState())
			}
			net.Tick(now)
		}
		// The last delivery leaves credits on the wires; give them the few
		// cycles they need to land and their receivers one idle tick to see
		// that nothing is left.
		for end := now + 20; now < end; now++ {
			net.Tick(now)
		}
		for id, r := range net.routers {
			if !r.dormant || armed(r.cal) != 0 || r.inFlight() != 0 || r.pendingWork() != 0 {
				t.Errorf("router %d: dormant=%v armed=%d in flight=%d pending=%d on a drained mesh", id, r.dormant, armed(r.cal), r.inFlight(), r.pendingWork())
			}
			if ni := net.nis[id]; !ni.dormant || ni.inFlight() != 0 || ni.pendingWork() != 0 {
				t.Errorf("NI %d: dormant=%v in flight=%d pending=%d on a drained mesh", id, ni.dormant, ni.inFlight(), ni.pendingWork())
			}
			if !net.sinks[id].dormant() {
				t.Errorf("sink %d awake on a drained mesh", id)
			}
		}
	}
	drain()
	if allocs := testing.AllocsPerRun(40, func() {
		net.Tick(now)
		now++
	}); allocs != 0 {
		t.Fatalf("a cycle of a sleeping mesh allocated %.0f objects, want 0", allocs)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	offered := 0
	for end := now + 2000; now < end; now++ {
		offered += src.offer(net, now)
		net.Tick(now)
	}
	runtime.ReadMemStats(&after)
	if offered < 1000 {
		t.Fatalf("only %d packets offered after the wake; the window is not loaded", offered)
	}
	if perPacket := float64(after.Mallocs-before.Mallocs) / float64(offered); perPacket > 0.25 {
		t.Fatalf("%.2f mallocs per packet offered to a mesh that had slept, want at most 0.25", perPacket)
	}
	drain()
}

// TestSinkStateStaysBounded is the long-run memory soak for the ejection
// side: with retry disabled a packet's reassembly entry goes the moment its
// last flit is counted, so after 50 000 deliveries every sink holds entries
// only for packets still in flight.
func TestSinkStateStaysBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("50k-packet soak")
	}
	mesh := topology.NewMesh(4)
	delivered := 0
	net := New(mesh, fastControl(), 9, &noc.Hooks{
		PacketDelivered: func(*noc.Packet, sim.Cycle) { delivered++ },
	})
	src := &uniformSource{rng: sim.NewRNG(21), mesh: mesh, rate: 0.1}
	held := func() int { return len(net.reassembly) }
	now := sim.Cycle(0)
	for ; delivered < 50000; now++ {
		src.offer(net, now)
		net.Tick(now)
		if now%1000 == 0 {
			if h, f := held(), net.InFlightPackets(); h > f {
				t.Fatalf("cycle %d: sinks hold %d reassembly entries with %d packets in flight", now, h, f)
			}
		}
	}
	for ; net.InFlightPackets() > 0; now++ {
		net.Tick(now)
	}
	if h := held(); h != 0 {
		t.Fatalf("drained network still holds %d reassembly entries after %d deliveries", h, delivered)
	}
}

// mallocsOf counts the objects fn allocates, on one processor and with the
// collector off — as testing.AllocsPerRun arranges — so that the count is the
// program's own.
func mallocsOf(fn func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestNewAllocationsIndependentOfRadix: a network is a few dozen arrays
// whatever its size — every table, ring, pool, queue, list and pipe is cut
// from one backing array per element type (arena.go) — so New makes the same
// number of allocations on 16 nodes as on 256.
func TestNewAllocationsIndependentOfRadix(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates; run without -race")
	}
	var counts []uint64
	for _, radix := range []int{4, 8, 16} {
		mesh := topology.NewMesh(radix)
		n := mallocsOf(func() { New(mesh, fastControl(), 1, nil) })
		t.Logf("%dx%d: New makes %d allocations", radix, radix, n)
		counts = append(counts, n)
	}
	if counts[0] != counts[1] || counts[1] != counts[2] {
		t.Fatalf("New allocates %v objects on 4x4, 8x8 and 16x16, want one count", counts)
	}
	if counts[0] > 64 {
		t.Fatalf("New makes %d allocations, want at most 64", counts[0])
	}
}

// TestFreshNetworkTickAllocatesNothing: nothing on the fault-free path waits
// for its first use to be built. A 16×16 network straight out of New, offered
// the fr-sparse rate (load 0.10) for 3000 cycles, allocates nothing in Offer
// or Tick.
func TestFreshNetworkTickAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates; run without -race")
	}
	mesh := topology.NewMesh(16)
	delivered := 0
	net := New(mesh, fastControl(), 3, &noc.Hooks{PacketDelivered: func(*noc.Packet, sim.Cycle) { delivered++ }})
	src := &uniformSource{rng: sim.NewRNG(17), mesh: mesh, rate: 0.005, chunk: make([]noc.Packet, 8192)}
	offered := 0
	mallocs := mallocsOf(func() {
		for now := sim.Cycle(0); now < 3000; now++ {
			offered += src.offer(net, now)
			net.Tick(now)
		}
	})
	if offered < 3000 || delivered < offered*9/10 {
		t.Fatalf("%d packets offered, %d delivered: the window did not carry the sparse load", offered, delivered)
	}
	if mallocs != 0 {
		t.Fatalf("a fresh network's first 3000 cycles allocated %d objects for %d packets, want 0", mallocs, offered)
	}
}
