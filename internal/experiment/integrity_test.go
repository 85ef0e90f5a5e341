package experiment

import (
	"fmt"
	"reflect"
	"testing"

	"frfc/internal/core"
)

// TestIntegritySweepDeliversEverythingWithE2E is the acceptance criterion:
// with corruption enabled and retry on, every offered packet is delivered
// through bit-error rates at and above 1e-3 on the 4x4 mesh — the weak 4-bit
// hop CRC leaks escapes, and the end-to-end check turns each one into a
// retry instead of an accepted corruption. The per-cycle invariant checker
// is armed, so a leaked reservation slot panics the run.
func TestIntegritySweepDeliversEverythingWithE2E(t *testing.T) {
	o := IntegritySweepOptions{ResolveOptions: ResolveOptions{Packets: 200, Check: true}, BERs: []float64{1e-3, 5e-3, 1e-2}}
	points := runSerial(t, o.Rows())
	sawEscape := false
	for _, p := range points {
		if p.Wedged {
			t.Fatalf("%s wedged", p.Spec.Name)
		}
		if p.CorruptedFlits == 0 {
			t.Fatalf("%s corrupted nothing", p.Spec.Name)
		}
		if p.CorruptEscapes > 0 {
			sawEscape = true
		}
		if !p.Spec.FR.E2ECheck {
			continue
		}
		if p.Delivered != p.Offered || p.Abandoned != 0 {
			t.Fatalf("%s: delivered %d of %d (abandoned %d)",
				p.Spec.Name, p.Delivered, p.Offered, p.Abandoned)
		}
	}
	if !sawEscape {
		t.Fatal("the deliberately weak 4-bit CRC leaked no escapes; the sweep is not exercising the end-to-end layer")
	}
}

// TestIntegritySweepDeterministic: the sweep is a pure function of its
// options — two serial runs agree on every field of every point.
func TestIntegritySweepDeterministic(t *testing.T) {
	o := IntegritySweepOptions{ResolveOptions: ResolveOptions{Packets: 80}, BERs: []float64{0, 5e-3}}
	a := runSerial(t, o.Rows())
	b := runSerial(t, o.Rows())
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("identical options diverged:\nfirst:  %+v\nsecond: %+v", a, b)
	}
}

// TestChaosSweepResolvesEverything: every offered packet under a chaos
// campaign resolves as delivered, abandoned or unreachable, the watchdog
// stays quiet, and moderate intensity (no router kills) loses nothing.
func TestChaosSweepResolvesEverything(t *testing.T) {
	o := ChaosSweepOptions{ResolveOptions: ResolveOptions{Packets: 200, Check: true}, Intensities: []float64{0.3, 1.0}}
	points := runSerial(t, o.Rows())
	for _, p := range points {
		if p.Wedged {
			t.Fatalf("%s wedged", p.Spec.Name)
		}
		if p.Delivered+p.Abandoned+p.Unreachable != p.Offered {
			t.Fatalf("%s conservation broken: %+v", p.Spec.Name, p)
		}
		if len(p.Events) == 0 || p.DroppedFlits == 0 || p.CorruptedFlits == 0 {
			t.Fatalf("%s campaign exercised nothing: %+v", p.Spec.Name, p)
		}
	}
	if points[0].Delivered != points[0].Offered {
		t.Fatalf("moderate intensity lost traffic: %+v", points[0])
	}
	if points[1].Unreachable == 0 {
		t.Fatalf("full intensity killed no routers: %+v", points[1])
	}
}

// TestChaosExcludesExplicitFaults: a spec cannot carry both a chaos campaign
// and a hand-written fault scenario — the campaign overwrites Faults, so
// accepting both would silently discard the user's schedule.
func TestChaosExcludesExplicitFaults(t *testing.T) {
	s := FR6(FastControl, 5)
	s.MeshRadix = 4
	s.ChaosIntensity = 0.5
	events, err := core.ParseScenario("down 5-6 @400; up 5-6 @900")
	if err != nil {
		t.Fatal(err)
	}
	s.Faults = events
	s.FR.RetryLimit = 4
	defer func() {
		if recover() == nil {
			t.Fatal("chaos + explicit faults did not panic")
		}
	}()
	NewNetwork(s, nil)
}

// TestChaosRejectedOffFR: the chaos engine is a flit-reservation feature;
// pointing it at a baseline flow must fail loudly.
func TestChaosRejectedOffFR(t *testing.T) {
	s := VC8(FastControl, 5)
	s.MeshRadix = 4
	s.ChaosIntensity = 0.5
	defer func() {
		if recover() == nil {
			t.Fatal("chaos on a VC spec did not panic")
		}
	}()
	NewNetwork(s, nil)
}

// TestIntegritySweepGridShape pins the row grid's shape: one point per (BER,
// e2e) pair in declaration order, e2e-on first, each named by its labels.
func TestIntegritySweepGridShape(t *testing.T) {
	o := IntegritySweepOptions{ResolveOptions: ResolveOptions{Packets: 40}, BERs: []float64{0, 1e-3}}
	points := runSerial(t, o.Rows())
	if len(points) != 4 {
		t.Fatalf("got %d points, want 4", len(points))
	}
	want := []struct {
		ber float64
		e2e bool
	}{{0, true}, {0, false}, {1e-3, true}, {1e-3, false}}
	for i, w := range want {
		s := points[i].Spec
		if s.FR.BER != w.ber || s.FR.E2ECheck != w.e2e || s.Name != fmt.Sprintf("ber=%g e2e=%v", w.ber, w.e2e) {
			t.Fatalf("point %d = %s (ber=%g, e2e=%v), want (ber=%g, e2e=%v)",
				i, s.Name, s.FR.BER, s.FR.E2ECheck, w.ber, w.e2e)
		}
	}
}
