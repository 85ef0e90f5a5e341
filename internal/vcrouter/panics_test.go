package vcrouter

import (
	"fmt"
	"strings"
	"testing"

	"frfc/internal/noc"
	"frfc/internal/routing"
	"frfc/internal/sim"
	"frfc/internal/topology"
)

// nowhere is a route function that reaches no destination.
type nowhere struct{}

func (nowhere) NextPort(topology.Mesh, topology.NodeID, topology.NodeID) (topology.Port, bool) {
	return 0, false
}

var _ routing.Algorithm = nowhere{}

// wantPanic runs f and requires it to panic with a message containing want.
func wantPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		got := fmt.Sprint(recover())
		if !strings.Contains(got, want) {
			t.Fatalf("panic %q, want one containing %q", got, want)
		}
	}()
	f()
}

// TestModelLeaksPanic: every way the credit protocol can be broken from
// outside a router or an interface still stops the run where it is noticed,
// with the message that names the port — through the calendar-armed rig, so a
// router that stopped reading a wire would fail here rather than pass.
func TestModelLeaksPanic(t *testing.T) {
	// stalled is the rig with the East output unable to send: whatever is
	// fed toward node 1 stays in its channel.
	stalled := func(cfg Config) *Router {
		r, _, _ := testRouter(cfg)
		o := &r.out[topology.East]
		o.pool = 0
		for v := range o.credits {
			o.credits[v] = 0
		}
		return r
	}
	// feedPacket feeds one flit a cycle from cycle 0, ticking the router
	// through the cycle after the last one, when that flit lands.
	feedPacket := func(r *Router, flits []noc.DataFlit) {
		for i, f := range flits {
			feedFlit(r, sim.Cycle(i), f)
			r.Tick(sim.Cycle(i))
		}
		r.Tick(sim.Cycle(len(flits)))
	}
	// ready is the rig with a head flit received, routed East and allocated,
	// so that traverse can be called on it directly.
	ready := func(cfg Config) *Router {
		r, _, _ := testRouter(cfg)
		feedPacket(r, mkPacket(1, 1, 2)[:1])
		if vc := &r.in[topology.East].vcs[0]; !vc.allocated || vc.n != 1 {
			t.Fatalf("rig not ready: allocated=%v n=%d", vc.allocated, vc.n)
		}
		return r
	}

	for _, tc := range []struct {
		name, want string
		f          func()
	}{
		{"buffer overflow", "in E vc 0 buffer overflow", func() {
			feedPacket(stalled(Config{NumVCs: 1, BufPerVC: 2, LinkLatency: 1}), mkPacket(1, 1, 3))
		}},
		{"pooled buffer overflow", "in E pooled buffer overflow", func() {
			feedPacket(stalled(Config{NumVCs: 2, BufPerVC: 1, SharedPool: true, LinkLatency: 1}), mkPacket(1, 1, 3))
		}},
		{"credit overflow", "out E vc 1 credit overflow", func() {
			r, _, _ := testRouter(Config{NumVCs: 2, BufPerVC: 4})
			feedCredit(r, 0, 1)
			r.Tick(1)
		}},
		{"pooled credit overflow", "out E pooled credit overflow", func() {
			r, _, _ := testRouter(Config{NumVCs: 2, BufPerVC: 4, SharedPool: true})
			feedCredit(r, 0, 1)
			r.Tick(1)
		}},
		{"pooled credit for a channel holding nothing", "out E pooled credit overflow", func() {
			r, _, _ := testRouter(Config{NumVCs: 2, BufPerVC: 4, SharedPool: true})
			o := &r.out[topology.East]
			o.pool, o.occ[0] = o.pool-1, 1 // one buffer out, on channel 0
			feedCredit(r, 0, 1)
			r.Tick(1)
		}},
		{"body flit at the front of an unallocated channel", "at front of unallocated channel", func() {
			r, _, _ := testRouter(Config{NumVCs: 2, BufPerVC: 4})
			feedPacket(r, mkPacket(1, 1, 3)[1:2])
		}},
		{"unreachable destination", "destination 1 unreachable", func() {
			r, _, _ := testRouter(Config{NumVCs: 2, BufPerVC: 4, Routing: nowhere{}})
			feedPacket(r, mkPacket(1, 1, 3)[:1])
		}},
		{"credit underflow", "vcrouter: credit underflow", func() {
			r := ready(Config{NumVCs: 1, BufPerVC: 4, LinkLatency: 1})
			r.out[topology.East].credits[0] = 0
			r.traverse(2, r.chanOf(portVC{topology.East, 0}))
		}},
		{"pooled credit underflow", "vcrouter: pooled credit underflow", func() {
			r := ready(Config{NumVCs: 1, BufPerVC: 4, SharedPool: true, LinkLatency: 1})
			r.out[topology.East].pool = 0
			r.traverse(2, r.chanOf(portVC{topology.East, 0}))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) { wantPanic(t, tc.want, tc.f) })
	}
}

// TestNIRejectsCreditItNeverSpent: the interface holds its injection port to
// the checks a router applies to its outputs. It used to absorb any credit,
// so a leak at the injection port inflated its buffer count in silence.
func TestNIRejectsCreditItNeverSpent(t *testing.T) {
	extraCredit := func(cfg Config, vc int, prepare func(*ni)) func() {
		return func() {
			net := New(topology.NewMesh(2), cfg, 1, nil)
			x := net.nis[0]
			if prepare != nil {
				prepare(x)
			}
			x.creditIn.Send(0, noc.VCCredit{VC: int32(vc)})
			net.Tick(0)
			net.Tick(1) // credit wires take one cycle
		}
	}
	wantPanic(t, "node 0 ni vc 1 credit overflow", extraCredit(Config{NumVCs: 2, BufPerVC: 4}, 1, nil))
	wantPanic(t, "node 0 ni pooled credit overflow", extraCredit(Config{NumVCs: 2, BufPerVC: 4, SharedPool: true}, 1, nil))
	wantPanic(t, "node 0 ni pooled credit overflow", extraCredit(Config{NumVCs: 2, BufPerVC: 4, SharedPool: true}, 1,
		func(x *ni) { x.pool, x.occ[0] = x.pool-1, 1 })) // the buffer out is channel 0's, the credit names 1
}
