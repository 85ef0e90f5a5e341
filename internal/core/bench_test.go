package core

import (
	"testing"

	"frfc/internal/noc"
	"frfc/internal/sim"
	"frfc/internal/topology"
)

// The in-package rungs of the benchmark ladder (ROADMAP 1a): the pieces of
// the FR hot path that bench/layers.go cannot reach because they are
// unexported. Run with
//
//	go test ./internal/core -run '^$' -bench . -benchmem -count 5

// uniformSource offers Bernoulli uniform-random 5-flit packets, the shape of
// the fr-mid workload: rate 0.05 packets per node per cycle is load 0.50 on
// an 8×8 mesh.
type uniformSource struct {
	rng  *sim.RNG
	mesh topology.Mesh
	rate float64
	id   noc.PacketID
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
		net.Offer(&noc.Packet{ID: s.id, Src: topology.NodeID(n), Dst: dst, Len: 5, CreatedAt: now})
		offered++
	}
	return offered
}

// BenchmarkOutResTableFindCommitCredit is one reservation's life on an
// output table in steady state: advance a cycle, find a departure for a flit
// arriving a few cycles out, commit it, and return the credit the downstream
// router would send — the sequence scheduleLeads and Router.Tick run per
// data flit per hop.
func BenchmarkOutResTableFindCommitCredit(b *testing.B) {
	tb := newOutResTable(32, 6, 2, false)
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
}

// BenchmarkRouterTickIdle ticks the routers of an empty 8×8 network: the
// floor every idle router pays each cycle (80 % of fr-sparse's ticks).
func BenchmarkRouterTickIdle(b *testing.B) {
	mesh := topology.NewMesh(8)
	net := New(mesh, fastControl(), 1, &noc.Hooks{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range net.routers {
			r.Tick(sim.Cycle(i))
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*mesh.N()), "ns/router-tick")
}

// BenchmarkRouterTickLoaded ticks a warmed 8×8 network under the fr-mid
// load. One op is one Network.Tick plus that cycle's offers; ns/router-tick
// divides it by the 64 routers, so it carries each router's share of the
// interface and sink ticks as well.
func BenchmarkRouterTickLoaded(b *testing.B) {
	mesh := topology.NewMesh(8)
	net := New(mesh, fastControl(), 1, &noc.Hooks{})
	src := &uniformSource{rng: sim.NewRNG(7), mesh: mesh, rate: 0.05}
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
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*mesh.N()), "ns/router-tick")
}

// BenchmarkNetworkNew8x8 is the construction cost a 158-cycle campaign job
// mostly consists of; -benchmem gives the bytes and mallocs per network that
// the cycle rings and reservation tables must not inflate.
func BenchmarkNetworkNew8x8(b *testing.B) {
	mesh := topology.NewMesh(8)
	cfg := fastControl()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if New(mesh, cfg, uint64(i), nil) == nil {
			b.Fatal("no network")
		}
	}
}
