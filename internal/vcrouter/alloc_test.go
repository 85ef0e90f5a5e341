package vcrouter

import (
	"runtime"
	"testing"

	"frfc/internal/noc"
	"frfc/internal/topology"
)

// TestVCSteadyStateTickAllocatesNothing is the allocation gate of the
// virtual-channel data path on a warmed 8×8 VC8 mesh. With nothing offered,
// the cycles that carry the flits already inside hop by hop to their sinks
// allocate nothing. Under load — the packets built beforehand, so the source
// allocates nothing either — a window that starts and ends drained allocates
// nothing per packet (the interface cuts each into its own scratch), only the
// odd queue or ring reaching a new high-water mark.
func TestVCSteadyStateTickAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates; run without -race")
	}
	net, src, now := warmedMesh(8, vc8(), 0.05)

	inFlight := net.InFlightPackets()
	if inFlight < 32 {
		t.Fatalf("only %d packets in flight when the sources stop; the gate would measure an idle network", inFlight)
	}
	allocs := testing.AllocsPerRun(30, func() {
		net.Tick(now)
		now++
	})
	if delivered := inFlight - net.InFlightPackets(); delivered < 32 {
		t.Fatalf("the measured window delivered %d packets; it did not carry traffic", delivered)
	}
	if allocs != 0 {
		t.Fatalf("Network.Tick allocated %.0f objects a cycle with flits in flight and nothing offered, want 0", allocs)
	}

	drain := func() {
		t.Helper()
		for end := now + 5000; net.InFlightPackets() > 0; now++ {
			if now == end {
				t.Fatalf("%d packets still in flight 5000 cycles after the sources stopped:\n%s", net.InFlightPackets(), net.DumpState())
			}
			net.Tick(now)
		}
	}
	drain()
	// Two thousand cycles of the warm-up's traffic, generated up front.
	const window = 2000
	var packets []noc.Packet
	var due []int // packets[due[c]:due[c+1]] are offered at cycle c of the window
	for c := 0; c < window; c++ {
		due = append(due, len(packets))
		for n := 0; n < src.mesh.N(); n++ {
			if !src.rng.Bool(src.rate) {
				continue
			}
			dst := topology.NodeID(src.rng.Intn(src.mesh.N() - 1))
			if dst >= topology.NodeID(n) {
				dst++
			}
			src.id++
			packets = append(packets, noc.Packet{ID: src.id, Src: int32(n), Dst: int32(dst), Len: 5})
		}
	}
	due = append(due, len(packets))

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for c := 0; c < window; c++ {
		for i := due[c]; i < due[c+1]; i++ {
			packets[i].CreatedAt = now
			net.Offer(&packets[i])
		}
		net.Tick(now)
		now++
	}
	drain()
	runtime.ReadMemStats(&after)
	mallocs := int(after.Mallocs - before.Mallocs)
	t.Logf("%d packets offered and delivered, %d mallocs", len(packets), mallocs)
	if len(packets) < 5000 {
		t.Fatalf("only %d packets offered; the window is not loaded", len(packets))
	}
	// A source queue, a pipe or a sink's map outgrowing what the warm-up
	// left it is a few dozen objects; one object per packet, or one per hop,
	// would be thousands.
	if mallocs > len(packets)/100 {
		t.Fatalf("%d mallocs for %d packets, want at most 1%%", mallocs, len(packets))
	}
}

// TestVCLoadedTickAllocatesPerPacketOnly is the twin of internal/core's gate
// of the same name: with the source carving its packets from arrays as
// traffic.Generator does, a loaded window of a warmed mesh stays under a
// quarter of an object per offered packet.
func TestVCLoadedTickAllocatesPerPacketOnly(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates; run without -race")
	}
	net, src, now := warmedMesh(8, vc8(), 0.05)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	offered := 0
	for end := now + 2000; now < end; now++ {
		offered += src.offer(net, now)
		net.Tick(now)
	}
	runtime.ReadMemStats(&after)
	perPacket := float64(after.Mallocs-before.Mallocs) / float64(offered)
	t.Logf("%d packets offered, %.3f mallocs a packet", offered, perPacket)
	if offered < 5000 {
		t.Fatalf("only %d packets offered; the window is not loaded", offered)
	}
	if perPacket > 0.25 {
		t.Fatalf("%.2f mallocs per offered packet, want at most 0.25", perPacket)
	}
}
