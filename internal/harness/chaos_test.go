package harness

import (
	"testing"

	"frfc/internal/experiment"
)

// TestChaosSoakSerialVsParallel is the chaos soak: seeded campaigns over a
// short horizon with the per-cycle invariant checker armed — credit
// conservation and reservation-table consistency panic the run if violated,
// and each cell drains to zero in-flight packets before reporting, so a
// leaked reservation slot cannot hide. The parallel sweep must reproduce the
// serial one bit for bit, and moderate intensity must lose nothing.
func TestChaosSoakSerialVsParallel(t *testing.T) {
	serial := serialVsParallel(t, experiment.ChaosSweepOptions{
		ResolveOptions: experiment.ResolveOptions{Packets: 250, Check: true},
		Intensities:    []float64{0.25, 0.6, 1.0},
	}.Cells())
	for _, p := range serial {
		if p.Wedged {
			t.Errorf("intensity=%g: watchdog fired", p.Intensity)
		}
		if p.Delivered+p.Abandoned+p.Unreachable != p.Offered {
			t.Errorf("intensity=%g: packet fates don't conserve: %+v", p.Intensity, p)
		}
		if p.Abandoned != 0 {
			t.Errorf("intensity=%g: %d packets abandoned under the default retry budget", p.Intensity, p.Abandoned)
		}
		if p.Intensity < 0.75 {
			if p.Delivered != p.Offered {
				t.Errorf("intensity=%g (no router kills) lost traffic: delivered %d of %d",
					p.Intensity, p.Delivered, p.Offered)
			}
		} else if float64(p.Delivered) < 0.95*float64(p.Offered) {
			t.Errorf("intensity=%g delivered only %d of %d", p.Intensity, p.Delivered, p.Offered)
		}
	}
}

// TestIntegritySweepParallelMatchesSerial: the bit-error grid fanned over
// workers must reproduce the serial sweep exactly, in the same cell order.
func TestIntegritySweepParallelMatchesSerial(t *testing.T) {
	serialVsParallel(t, experiment.IntegritySweepOptions{
		ResolveOptions: experiment.ResolveOptions{Packets: 80, Check: true},
		BERs:           []float64{0, 5e-3},
	}.Cells())
}

// TestChaosJobsHashStably: chaos fields ride the spec, so identical chaos
// jobs hit the result cache and different intensities or seeds do not.
func TestChaosJobsHashStably(t *testing.T) {
	s := tinySpec()
	s.Name = "FR6-chaos"
	s.ChaosIntensity = 0.4
	s.ChaosHorizon = 1500
	s.ChaosSeed = 9
	h1 := Job{Spec: s, Load: 0.2}.Hash()
	h2 := Job{Spec: s, Load: 0.2}.Hash()
	if h1 != h2 {
		t.Fatal("identical chaos jobs hashed differently")
	}
	s2 := s
	s2.ChaosSeed = 10
	if h3 := (Job{Spec: s2, Load: 0.2}.Hash()); h3 == h1 {
		t.Fatal("different chaos seeds collided — the seed is not in the job hash")
	}
}
