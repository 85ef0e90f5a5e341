package vcrouter

import (
	"testing"

	"frfc/internal/noc"
	"frfc/internal/sim"
	"frfc/internal/topology"
)

// The in-package rungs of the benchmark ladder for the virtual-channel
// lineage, beside internal/core's for flit reservation. Run with
//
//	go test ./internal/vcrouter -run '^$' -bench . -benchmem -count 5
//
// (scripts/bench.sh does exactly that.)

// vc8 is the paper's VC8 point under fast control, the vc-mid workload's
// configuration.
func vc8() Config {
	return Config{NumVCs: 2, BufPerVC: 4, LinkLatency: 4, CreditLatency: 1, LocalLatency: 1}
}

// uniformSource offers Bernoulli uniform-random 5-flit packets, the shape of
// the vc-mid workload: rate 0.05 packets per node per cycle is load 0.50 on
// an 8×8 mesh.
type uniformSource struct {
	rng  *sim.RNG
	mesh topology.Mesh
	rate float64
	id   noc.PacketID
	// chunk is what is left of the array packets are carved from, as
	// traffic.Generator carves them: the source's own allocations are a
	// 256th of an object a packet.
	chunk []noc.Packet
}

func (s *uniformSource) offer(net *Network, now sim.Cycle) (offered int) {
	for n := 0; n < s.mesh.N(); n++ {
		if !s.rng.Bool(s.rate) {
			continue
		}
		dst := topology.NodeID(s.rng.Intn(s.mesh.N() - 1))
		if dst >= topology.NodeID(n) {
			dst++
		}
		s.id++
		if len(s.chunk) == 0 {
			s.chunk = make([]noc.Packet, 256)
		}
		p := &s.chunk[0]
		s.chunk = s.chunk[1:]
		*p = noc.Packet{ID: s.id, Src: int32(n), Dst: int32(dst), Len: 5, CreatedAt: now}
		net.Offer(p)
		offered++
	}
	return offered
}

// warmedMesh returns a radix×radix network that has carried uniform traffic
// at the given packet rate for 2000 cycles — every pipe, channel ring and
// scratch slice at its working size — the source that fed it, and the next
// cycle to tick.
func warmedMesh(radix int, cfg Config, rate float64) (*Network, *uniformSource, sim.Cycle) {
	mesh := topology.NewMesh(radix)
	net := New(mesh, cfg, 1, &noc.Hooks{})
	src := &uniformSource{rng: sim.NewRNG(7), mesh: mesh, rate: rate}
	now := sim.Cycle(0)
	for ; now < 2000; now++ {
		src.offer(net, now)
		net.Tick(now)
	}
	return net, src, now
}

// BenchmarkVCRouterTickIdle ticks the routers of an empty 8×8 network: every
// calendar word and occupancy word reads zero and the switch permutation is
// skipped over, the floor under a router's cycle.
func BenchmarkVCRouterTickIdle(b *testing.B) {
	mesh := topology.NewMesh(8)
	net := New(mesh, vc8(), 1, &noc.Hooks{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range net.routers {
			r.Tick(sim.Cycle(i))
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*mesh.N()), "ns/router-tick")
}

// BenchmarkVCNetworkTick8x8Mid is the vc-mid shape: one op is one cycle of a
// warmed 8×8 VC8 mesh at load 0.50 — that cycle's offers and Network.Tick
// over every interface, router and sink.
func BenchmarkVCNetworkTick8x8Mid(b *testing.B) {
	net, src, now := warmedMesh(8, vc8(), 0.05)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.offer(net, now)
		net.Tick(now)
		now++
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/cycle")
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "cycles/s")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*64), "ns/router-tick")
}

// BenchmarkVCNetworkNew8x8 is the construction cost half of every campaign
// cold job pays; -benchmem gives the bytes and mallocs per network that the
// occupancy words must not inflate and the channel rings, made on first use,
// do not touch.
func BenchmarkVCNetworkNew8x8(b *testing.B) {
	mesh := topology.NewMesh(8)
	cfg := vc8()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if New(mesh, cfg, uint64(i), nil) == nil {
			b.Fatal("no network")
		}
	}
}

// BenchmarkVCNetworkReset8x8 is what a campaign job pays instead of
// VCNetworkNew8x8 once a network of its configuration exists: the warmed 8×8
// mesh, flits in flight, returned to its constructed state. It allocates
// nothing.
func BenchmarkVCNetworkReset8x8(b *testing.B) {
	net, _, _ := warmedMesh(8, vc8(), 0.05)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Reset(uint64(i), nil)
	}
}
