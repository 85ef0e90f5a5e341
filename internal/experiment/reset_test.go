package experiment

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"frfc/internal/core"
	"frfc/internal/metrics"
	"frfc/internal/noc"
	"frfc/internal/sim"
	"frfc/internal/topology"
)

// flushNetworks empties the process-wide network cache and zeroes its
// counters, so that what a test finds there is what the test put there.
func flushNetworks() {
	networks.mu.Lock()
	defer networks.mu.Unlock()
	networks.idle, networks.hits, networks.misses = nil, 0, 0
}

// cacheCounts reads the cache's hit and miss counters and how many networks
// sit idle in it.
func cacheCounts() (hits, misses, idle int) {
	networks.mu.Lock()
	defer networks.mu.Unlock()
	return networks.hits, networks.misses, len(networks.idle)
}

// abandon drives net the way a run would — uniform traffic at the given load
// from its own seed — for the given cycles, lets it drain for a few more, and
// walks away with flits still on every kind of wire: the state a run cancelled
// mid-drain leaves behind.
func abandon(net noc.Network, s Spec, seed uint64, load float64, cycles sim.Cycle) {
	mesh := topology.NewMesh(s.MeshRadix)
	rate := load * mesh.CapacityPerNode() / float64(s.PacketLen)
	src := sim.NewRNG(seed)
	var id noc.PacketID
	now := sim.Cycle(0)
	for ; now < cycles; now++ {
		for n := 0; n < mesh.N(); n++ {
			if !src.Bool(rate) {
				continue
			}
			dst := topology.NodeID(src.Intn(mesh.N() - 1))
			if dst >= topology.NodeID(n) {
				dst++
			}
			id++
			net.Offer(&noc.Packet{ID: id, Src: int32(n), Dst: int32(dst), Len: int32(s.PacketLen), CreatedAt: now, Sampled: true})
		}
		net.Tick(now)
	}
	for end := now + 12; now < end; now++ {
		net.Tick(now)
	}
}

// resetCase is one configuration of the Reset oracle.
type resetCase struct {
	name string
	spec Spec
	load float64
	// heavy is the load of the run meant to leave the network saturated.
	heavy float64
	probe func() *metrics.Probe
}

func resetCases(t *testing.T) []resetCase {
	small := func(s Spec) Spec {
		s.MeshRadix = 4
		return s.Scaled(80, 150)
	}
	var cases []resetCase
	for _, name := range strings.Split(ConfigNames, ", ") {
		w := FastControl
		if name == "FR6-leadN" {
			name, w = "FR6-lead2", LeadingControl
		}
		s, err := Named(name, w, 5)
		if err != nil {
			t.Fatal(err)
		}
		load, heavy := 0.30, 1.2
		if s.Flow == CircuitSwitch {
			load = 0.05 // circuit switching saturates near 10 %
		}
		s = s.Scaled(80, 150) // on the 8x8 mesh Named gives it; the checker runs on the 4x4 cases below
		cases = append(cases, resetCase{name: name, spec: s, load: load, heavy: heavy})
	}

	// mild is the heavy load of the cases that can destroy a control flit
	// mid-stream: past saturation they reach panics this change did not make
	// (the parent commit panics at the same cycle; see the verify notes).
	const mild = 0.35
	fr := func(name string, heavy float64, tune func(*Spec)) {
		s := small(FR6(FastControl, 5))
		s.Check = true
		tune(&s)
		if heavy == mild {
			s = s.Scaled(40, 120) // retries stretch these runs' tails
		}
		cases = append(cases, resetCase{name: name, spec: s, load: 0.25, heavy: heavy})
	}
	scenario := func(text string) []core.FaultEvent {
		ev, err := core.ParseScenario(text)
		if err != nil {
			t.Fatal(err)
		}
		return ev
	}
	fr("plain", 1.2, func(*Spec) {})
	fr("faults-link-down-up", mild, func(s *Spec) {
		s.Faults = scenario("down 5-6 @80; down 9-10 @120; up 5-6 @170")
		s.FR.RetryLimit = 6
	})
	fr("faults-router-kill", mild, func(s *Spec) {
		s.Faults = scenario("down 1-2 @70; kill 10 @110; up 1-2 @160")
		s.FR.RetryLimit = 6
	})
	fr("faults-corrupt-link", mild, func(s *Spec) {
		s.Faults = scenario("corrupt 5-6 rate 0.02 @50")
		s.FR.RetryLimit, s.FR.RetryTimeout = 6, 150
		s.FR.E2ECheck = true
	})
	fr("chaos", mild, func(s *Spec) {
		s.ChaosIntensity, s.ChaosHorizon, s.ChaosSeed = 0.8, 300, 11
		s.FR.E2ECheck = true
	})
	fr("ber-e2e", mild, func(s *Spec) {
		s.FR.BER, s.FR.CrcBits, s.FR.E2ECheck, s.FR.RetryLimit = 1e-3, 4, true, 6
	})
	fr("retry-timeout", 1.2, func(s *Spec) {
		s.FR.DataFaultRate, s.FR.RetryLimit, s.FR.RetryTimeout = 0.01, 5, 150
	})
	fr("soft-faults", 1.2, func(s *Spec) {
		s.FR.DataFaultRate, s.FR.CtrlFaultRate = 0.01, 0.05
	})
	fr("table-routing-eager-ledger", 1.2, func(s *Spec) {
		s.Routing = "table"
		s.FR.TrackEagerTransfers = true
	})
	fr("d4-all-or-nothing", 1.2, func(s *Spec) {
		s.PacketLen = 8
		s.FR.LeadsPerCtrl, s.FR.AllOrNothing = 4, true
	})
	fr("unchecked", 1.2, func(s *Spec) { s.Check = false })

	observed := small(FR6(FastControl, 5))
	cases = append(cases, resetCase{name: "probe-FR6", spec: observed, load: 0.30, heavy: 1.2,
		probe: func() *metrics.Probe {
			return metrics.NewProbe(metrics.Options{Metrics: true, MetricsEpoch: 64, Profile: true, Waterfall: true})
		}})
	cases = append(cases, resetCase{name: "probe-VC8", spec: small(VC8(FastControl, 5)), load: 0.30, heavy: 1.2,
		probe: func() *metrics.Probe {
			return metrics.NewProbe(metrics.Options{Metrics: true, MetricsEpoch: 64, Profile: true, Waterfall: true})
		}})
	return cases
}

// TestResetEqualsNew is the oracle of network reuse: a run on a network that
// earlier runs dirtied and Reset returned to its constructed state reports
// exactly — reflect.DeepEqual on the whole Result, observers' sidecar
// included — what the same run reports on a network built for it. The dirt is
// a finished run at another seed and load, a run driven past saturation, and
// a run abandoned mid-drain with its probe still attached. The 4×4
// flit-reservation cases run under Config.Check, so a Reset that left an inbox
// count, a credit or a table cell behind fails at the first cycle rather than
// as a changed digit.
func TestResetEqualsNew(t *testing.T) {
	for _, c := range resetCases(t) {
		c := c
		t.Run(c.name, func(t *testing.T) {
			run := func(s Spec, load float64) Result {
				t.Helper()
				var probe *metrics.Probe
				if c.probe != nil {
					probe = c.probe()
				}
				r, err := RunInstrumented(context.Background(), s, load, probe, nil)
				if err != nil {
					t.Fatal(err)
				}
				return r
			}
			flushNetworks()
			want := run(c.spec, c.load)
			if _, misses, idle := cacheCounts(); misses != 1 || idle != 1 {
				t.Fatalf("the first run made %d misses and left %d idle networks, want 1 and 1", misses, idle)
			}
			check := func(dirt string) {
				t.Helper()
				hits, _, _ := cacheCounts()
				got := run(c.spec, c.load)
				if now, _, _ := cacheCounts(); now != hits+1 {
					t.Fatalf("after %s: the run did not take its network from the cache", dirt)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("after %s, Reset then run differs from New then run:\n got: %+v\nwant: %+v", dirt, got, want)
				}
			}

			other := c.spec
			other.Seed = 0xD1127
			run(other, c.load*0.6)
			check("a finished run at another seed and load")

			heavy := c.spec.Scaled(60, 100)
			heavy.Seed = 3
			heavy.DrainFactor = 2
			run(heavy, c.heavy)
			check("a run past saturation")

			spec := c.spec.withDefaults()
			key := networkKey(spec)
			net := networks.take(key)
			if net == nil {
				t.Fatal("no idle network under the spec's key")
			}
			net.Reset(99, nil)
			if a, ok := net.(metrics.Attachable); ok {
				a.AttachProbe(metrics.NewProbe(metrics.Options{Metrics: true, MetricsEpoch: 16, Profile: true, Waterfall: true}))
			}
			abandon(net, spec, 17, min(c.heavy, 0.6), 260)
			if net.InFlightPackets() == 0 {
				t.Fatal("the abandoned run left nothing in flight")
			}
			// What Reset leaves reads, at cycle 0, like what New leaves.
			if d, ok := net.(interface{ DumpState() string }); ok {
				fresh, _ := NewNetwork(c.spec, nil)
				net.Reset(spec.Seed, nil)
				if got, want := d.DumpState(), fresh.(interface{ DumpState() string }).DumpState(); got != want {
					t.Fatalf("DumpState after Reset:\n%s\nafter New:\n%s", got, want)
				}
				if net.InFlightPackets() != 0 || net.SourceQueueLen() != 0 {
					t.Fatalf("Reset left %d packets in flight, %d queued", net.InFlightPackets(), net.SourceQueueLen())
				}
				abandon(net, spec, 18, min(c.heavy, 0.6), 260)
			}
			networks.put(key, net, spec.MeshRadix*spec.MeshRadix)
			check("a run abandoned mid-drain with its probe attached")
		})
	}
}
