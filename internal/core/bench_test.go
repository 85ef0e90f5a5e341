package core

import (
	"fmt"
	"testing"
	"time"

	"frfc/internal/noc"
	"frfc/internal/sim"
	"frfc/internal/topology"
)

// The in-package rungs of the benchmark ladder (ROADMAP 1a): the pieces of
// the FR hot path that bench/layers.go cannot reach because they are
// unexported. Run with
//
//	go test ./internal/core -run '^$' -bench . -benchmem -count 5
//
// (scripts/bench.sh does exactly that.)

// uniformSource offers Bernoulli uniform-random 5-flit packets, the shape of
// the fr-mid workload: rate 0.05 packets per node per cycle is load 0.50 on
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

// BenchmarkOutResTableFindCommitCredit is one reservation's life on an
// output table in steady state: advance a cycle, find a departure for a flit
// arriving a few cycles out, commit it, and return the credit the downstream
// router would send — the sequence scheduleLeads and Router.Tick run per
// data flit per hop. h=32 is the paper's horizon; at h=128 every sweep spans
// four times the cells.
func BenchmarkOutResTableFindCommitCredit(b *testing.B) {
	for _, horizon := range []sim.Cycle{32, 128} {
		b.Run(fmt.Sprintf("h=%d", horizon), func(b *testing.B) {
			tb := newOutResTable(horizon, 6, 2, false)
			const tp = 4
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				now := sim.Cycle(i)
				tb.advance(now)
				td, ok := tb.findDeparture(now, now+3, tp, i&1)
				if !ok {
					b.Fatalf("cycle %d: no departure on a table that is credited every cycle", now)
				}
				tb.commit(td, tp, i&1)
				tb.creditFrom(td+tp+2, i&1)
			}
		})
	}
}

// BenchmarkRouterTickDormant ticks the routers of an empty 8×8 network: once
// asleep a router pays only the guard at the top of Tick, the floor under
// half of fr-sparse's ticks.
func BenchmarkRouterTickDormant(b *testing.B) {
	mesh := topology.NewMesh(8)
	net := New(mesh, fastControl(), 1, &noc.Hooks{})
	net.Tick(0) // nothing queued, nothing inbound: every router goes dormant
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := range net.routers {
			net.routers[r].Tick(sim.Cycle(i + 1))
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*mesh.N()), "ns/router-tick")
}

// BenchmarkRouterTickIdle ticks the same routers held awake: the whole tick
// runs and finds nothing due on its calendar — what a router pays on a cycle
// it cannot return at the guard (with a control flit queued, say) beyond the
// work itself.
func BenchmarkRouterTickIdle(b *testing.B) {
	mesh := topology.NewMesh(8)
	net := New(mesh, fastControl(), 1, &noc.Hooks{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := range net.routers {
			net.routers[r].dormant = false
			net.routers[r].Tick(sim.Cycle(i))
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*mesh.N()), "ns/router-tick")
}

// BenchmarkRouterTickLoaded ticks the routers of the fr-mid shape: the 8×8
// mesh of BenchmarkNetworkTick8x8Mid, warmed the same 2 000 cycles, nearly
// every router awake with control flits to arbitrate, route, schedule and
// forward. Each op is one cycle of Network.Tick's fault-free, probe-free
// loop — offers, interfaces, routers, sinks — and only the cycle's 64
// Router.Tick calls are on the clock.
func BenchmarkRouterTickLoaded(b *testing.B) {
	mesh := topology.NewMesh(8)
	net := New(mesh, fastControl(), 1, &noc.Hooks{})
	src := &uniformSource{rng: sim.NewRNG(7), mesh: mesh, rate: 0.05}
	now := sim.Cycle(0)
	for ; now < 2000; now++ {
		src.offer(net, now)
		net.Tick(now)
	}
	var ticking time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.offer(net, now)
		net.now = now
		for id := range net.nis {
			net.nis[id].Tick(now)
		}
		start := time.Now()
		for id := range net.routers {
			net.routers[id].Tick(now)
		}
		ticking += time.Since(start)
		for id := range net.sinks {
			net.sinks[id].Tick(now)
		}
		net.watch(now)
		now++
	}
	b.ReportMetric(float64(ticking.Nanoseconds())/float64(b.N*mesh.N()), "ns/router-tick")
}

// benchNetworkTick is the full-network rung: one op is one cycle of a warmed
// radix×radix mesh — that cycle's offers and Network.Tick over every
// interface, router and sink — under uniform 5-flit traffic at the given
// packet rate per node.
func benchNetworkTick(b *testing.B, radix int, rate float64) {
	mesh := topology.NewMesh(radix)
	net := New(mesh, fastControl(), 1, &noc.Hooks{})
	src := &uniformSource{rng: sim.NewRNG(7), mesh: mesh, rate: rate}
	now := sim.Cycle(0)
	for ; now < 2000; now++ {
		src.offer(net, now)
		net.Tick(now)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.offer(net, now)
		net.Tick(now)
		now++
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/cycle")
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "cycles/s")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*mesh.N()), "ns/router-tick")
}

// BenchmarkNetworkTick16x16Sparse is the fr-sparse shape: load 0.10 on 256
// nodes, most of them asleep on any one cycle.
func BenchmarkNetworkTick16x16Sparse(b *testing.B) { benchNetworkTick(b, 16, 0.005) }

// BenchmarkNetworkTick8x8Mid is the fr-mid shape: load 0.50 on 64 nodes,
// nearly every router awake. Its ns/router-tick, beside the dormant and idle
// rungs, carries each router's share of the interface and sink ticks as well.
func BenchmarkNetworkTick8x8Mid(b *testing.B) { benchNetworkTick(b, 8, 0.05) }

// benchNetworkNew is construction: what the first job of a configuration
// pays on a mesh small enough to be kept (experiment/netcache.go) and every
// job on a larger one. -benchmem gives the bytes per network, which the arena
// fixes, and the mallocs, which must not depend on the radix.
func benchNetworkNew(b *testing.B, radix int) {
	mesh := topology.NewMesh(radix)
	cfg := fastControl()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if New(mesh, cfg, uint64(i), nil) == nil {
			b.Fatal("no network")
		}
	}
}

func BenchmarkNetworkNew8x8(b *testing.B)   { benchNetworkNew(b, 8) }
func BenchmarkNetworkNew16x16(b *testing.B) { benchNetworkNew(b, 16) }

// BenchmarkNetworkReset8x8 is what a campaign job pays instead of
// NetworkNew8x8 once a network of its configuration exists: the same 8×8
// mesh, carrying traffic when it is reset, returned to its constructed state.
// It allocates nothing.
func BenchmarkNetworkReset8x8(b *testing.B) {
	mesh := topology.NewMesh(8)
	net := New(mesh, fastControl(), 1, nil)
	src := &uniformSource{rng: sim.NewRNG(7), mesh: mesh, rate: 0.05}
	for now := sim.Cycle(0); now < 200; now++ {
		src.offer(net, now)
		net.Tick(now)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Reset(uint64(i), nil)
	}
}
