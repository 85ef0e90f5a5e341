package experiment

import (
	"testing"

	"frfc/internal/sim"
	"frfc/internal/traffic"
)

// tiny scales a spec down for unit tests: small mesh, small sample.
func tiny(s Spec) Spec {
	s.MeshRadix = 4
	s = s.Scaled(400, 500)
	return s
}

// runPlain is Run as the run function Bisect and Summarize take.
func runPlain(s Spec, load float64) (Result, error) { return Run(s, load), nil }

// saturate is the reference saturation search: Bisect over plain Runs.
func saturate(t *testing.T, s Spec, resolution float64) float64 {
	t.Helper()
	sat, _, err := Bisect(s, resolution, runPlain)
	if err != nil {
		t.Fatalf("%s: %v", s.Name, err)
	}
	return sat
}

func TestRunLowLoadDeliversWholeSample(t *testing.T) {
	for _, s := range []Spec{FR6(FastControl, 5), VC8(FastControl, 5)} {
		s = tiny(s)
		r := Run(s, 0.20)
		if r.Saturated {
			t.Errorf("%s saturated at 20%% load", s.Name)
		}
		if r.SampledDelivered != r.SampleSize || r.SampleSize != 400 {
			t.Errorf("%s delivered %d of %d sampled packets", s.Name, r.SampledDelivered, r.SampleSize)
		}
		if r.AvgLatency <= 0 {
			t.Errorf("%s average latency = %f, want > 0", s.Name, r.AvgLatency)
		}
		if r.AcceptedLoad <= 0.1 || r.AcceptedLoad > 0.35 {
			t.Errorf("%s accepted load = %.3f at offered 0.20, want near 0.20", s.Name, r.AcceptedLoad)
		}
	}
}

func TestRunDetectsSaturationAtAbsurdLoad(t *testing.T) {
	s := tiny(VC8(FastControl, 5))
	s.DrainFactor = 2
	r := Run(s, 1.5)
	if !r.Saturated {
		t.Errorf("VC8 at 150%% offered load reported unsaturated (latency %.1f)", r.AvgLatency)
	}
}

func TestFRBaseLatencyBeatsVCUnderFastControl(t *testing.T) {
	fr := BaseLatency(tiny(FR6(FastControl, 5)))
	vc := BaseLatency(tiny(VC8(FastControl, 5)))
	if fr >= vc {
		t.Errorf("FR base latency %.1f >= VC base latency %.1f; the paper's routing/arbitration savings are missing", fr, vc)
	}
}

func TestLeadingControlBaseLatenciesMatch(t *testing.T) {
	// Figure 9: with 1-cycle wires and a 1-cycle control lead, FR's base
	// latency equals VC's (the lead substitutes for routing latency).
	fr := BaseLatency(tiny(FRLead(1, 5)))
	vc := BaseLatency(tiny(VC8(LeadingControl, 5)))
	diff := fr - vc
	if diff < -3 || diff > 3 {
		t.Errorf("leading-control base latencies differ too much: FR %.1f vs VC %.1f", fr, vc)
	}
}

func TestSweepMonotoneLatency(t *testing.T) {
	s := tiny(FR6(FastControl, 5))
	rs := Sweep(s, []float64{0.1, 0.3, 0.5})
	for i := 1; i < len(rs); i++ {
		if rs[i].AvgLatency+1 < rs[i-1].AvgLatency {
			t.Errorf("latency fell from %.1f to %.1f as load rose from %.0f%% to %.0f%%",
				rs[i-1].AvgLatency, rs[i].AvgLatency, rs[i-1].Load*100, rs[i].Load*100)
		}
	}
}

func TestSaturationThroughputOrdering(t *testing.T) {
	// Coarse resolution to keep the test fast; the ordering FR6 > VC8 is
	// the paper's headline result and must hold even on a 4x4 mesh.
	fr := saturate(t, tiny(FR6(FastControl, 5)), 0.05)
	vc := saturate(t, tiny(VC8(FastControl, 5)), 0.05)
	if fr <= vc {
		t.Errorf("FR6 saturation %.2f <= VC8 saturation %.2f; expected FR to win", fr, vc)
	}
}

func TestSpecDefaultsAndPenalty(t *testing.T) {
	s := FR6(FastControl, 5)
	if s.MeshRadix != 8 || s.PacketLen != 5 {
		t.Errorf("FR6 defaults wrong: radix %d, pktlen %d", s.MeshRadix, s.PacketLen)
	}
	// 5 bits of arrival stamp on a 256-bit flit: ~1.95%.
	if s.BandwidthPenalty < 0.015 || s.BandwidthPenalty > 0.025 {
		t.Errorf("FR6 bandwidth penalty = %.4f, want ~0.0195", s.BandwidthPenalty)
	}
	v := VC8(FastControl, 5)
	if v.BandwidthPenalty != 0 {
		t.Errorf("VC8 bandwidth penalty = %f, want 0", v.BandwidthPenalty)
	}
	if v.VC.BuffersPerInput() != 8 {
		t.Errorf("VC8 buffers/input = %d, want 8", v.VC.BuffersPerInput())
	}
}

func TestBernoulliProcessPath(t *testing.T) {
	s := tiny(FR6(FastControl, 5))
	s.Bernoulli = true
	r := Run(s, 0.25)
	if r.Saturated || r.SampledDelivered != r.SampleSize {
		t.Fatalf("bernoulli run: saturated=%v delivered=%d/%d", r.Saturated, r.SampledDelivered, r.SampleSize)
	}
}

func TestPaperScaleProtocol(t *testing.T) {
	s := FR6(FastControl, 5).PaperScale()
	if s.WarmupCycles != 10000 || s.SamplePackets != 100000 {
		t.Fatalf("PaperScale = warmup %d, sample %d", s.WarmupCycles, s.SamplePackets)
	}
}

func TestBaselineSpecsRunThroughHarness(t *testing.T) {
	for _, s := range []Spec{
		WormholeSpec("WH8", FastControl, 8, 5),
		PacketSwitchSpec("SAF2", StoreForward, FastControl, 2, 5),
		PacketSwitchSpec("VCT2", CutThrough, LeadingControl, 2, 5),
		CircuitSpec("CS", LeadingControl, 5),
	} {
		s = tiny(s)
		s.SamplePackets = 200
		r := Run(s, 0.10)
		if r.Saturated || r.SampledDelivered != 200 {
			t.Errorf("%s: saturated=%v delivered=%d/200", s.Name, r.Saturated, r.SampledDelivered)
		}
	}
}

func TestPercentilesOrdered(t *testing.T) {
	r := Run(tiny(VC8(FastControl, 5)), 0.40)
	if !(r.MinLatency <= r.P50 && r.P50 <= r.P95 && r.P95 <= r.P99 && r.P99 <= r.MaxLatency) {
		t.Fatalf("quantiles out of order: min %d p50 %d p95 %d p99 %d max %d",
			r.MinLatency, r.P50, r.P95, r.P99, r.MaxLatency)
	}
	if float64(r.P50) > r.AvgLatency*1.5 {
		t.Fatalf("median %d wildly above mean %.1f", r.P50, r.AvgLatency)
	}
}

func TestRunRejectsAbsurdLoad(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("load 3.0 did not panic")
		}
	}()
	Run(tiny(FR6(FastControl, 5)), 3.0)
}

func TestQueueDelayDecomposition(t *testing.T) {
	// At light load the source queue is nearly empty; near saturation it
	// dominates. Both components must stay within the total.
	s := tiny(VC8(FastControl, 5))
	light := Run(s, 0.15)
	heavy := Run(s, 0.85)
	for _, r := range []Result{light, heavy} {
		if r.AvgQueueDelay < 0 || r.AvgQueueDelay > r.AvgLatency {
			t.Fatalf("queue delay %.1f outside [0, %.1f]", r.AvgQueueDelay, r.AvgLatency)
		}
	}
	if light.AvgQueueDelay > 3 {
		t.Errorf("light-load queue delay %.1f cycles, want near zero", light.AvgQueueDelay)
	}
	if !heavy.Saturated && heavy.AvgQueueDelay < light.AvgQueueDelay {
		t.Errorf("queue delay fell under load: %.1f -> %.1f", light.AvgQueueDelay, heavy.AvgQueueDelay)
	}
}

// TestComparisonHoldsAcrossTrafficPatterns probes the robustness of the
// paper's headline comparison beyond uniform traffic: at a moderate load the
// storage-matched pair must both deliver, and flit reservation must keep its
// latency advantage under transpose and tornado as well.
func TestComparisonHoldsAcrossTrafficPatterns(t *testing.T) {
	for _, pattern := range []traffic.Pattern{traffic.Uniform{}, traffic.Transpose{}, traffic.Tornado{}} {
		fr := tiny(FR6(FastControl, 5))
		fr.Pattern = pattern
		vc := tiny(VC8(FastControl, 5))
		vc.Pattern = pattern
		rf := Run(fr, 0.30)
		rv := Run(vc, 0.30)
		if rf.Saturated || rv.Saturated {
			t.Errorf("%s: saturation at 30%% load (FR %v, VC %v)", pattern.Name(), rf.Saturated, rv.Saturated)
			continue
		}
		if rf.AvgLatency >= rv.AvgLatency {
			t.Errorf("%s: FR latency %.1f >= VC %.1f — the advantage should survive the pattern",
				pattern.Name(), rf.AvgLatency, rv.AvgLatency)
		}
	}
}

// TestPaperShapesAtReducedScale holds the comparative structure of the paper's
// results that no other tier-1 test asserts, on the tiny 4x4 scale: the
// numbers cmd/paperfigs prints at 8x8 differ, the orderings and flatnesses do
// not. (Figure 5, Table 3, the lineage, the eager ledger and Tables 1-2 have
// tests of their own; DESIGN.md §4 indexes them.)
func TestPaperShapesAtReducedScale(t *testing.T) {
	sat := func(t *testing.T, s Spec) float64 { return saturate(t, tiny(s), 0.05) }
	for _, shape := range []struct {
		name  string
		check func(t *testing.T)
	}{
		// Figure 7: a 16-cycle horizon lands within 15% of a 128-cycle one.
		{"Figure7Horizon", func(t *testing.T) {
			horizon := func(h sim.Cycle) float64 {
				s := FR6(FastControl, 5)
				s.FR.Horizon = h
				return sat(t, s)
			}
			if s16, s128 := horizon(16), horizon(128); s16 < 0.85*s128 {
				t.Errorf("saturation %.3f at horizon 16, %.3f at horizon 128", s16, s128)
			}
		}},
		// Figure 8: saturation is independent of the control lead.
		{"Figure8Lead", func(t *testing.T) {
			lo, hi := 1.0, 0.0
			for _, lead := range []sim.Cycle{1, 2, 4} {
				s := sat(t, FRLead(lead, 5))
				lo, hi = min(lo, s), max(hi, s)
			}
			if hi-lo > 0.10 {
				t.Errorf("saturation spans %.3f to %.3f across leads 1, 2, 4; want within 10 points", lo, hi)
			}
		}},
		// Figure 9: on 1-cycle wires FR6 with a 1-cycle lead beats VC8 under load.
		{"Figure9LeadingVsVC", func(t *testing.T) {
			fr := Run(tiny(FRLead(1, 5)), 0.50).AvgLatency
			vc := Run(tiny(VC8(LeadingControl, 5)), 0.50).AvgLatency
			if fr >= vc {
				t.Errorf("latency at 50%% load: FR6-lead1 %.1f, VC8 %.1f", fr, vc)
			}
		}},
		// Section 2: circuit setup only amortises over long messages.
		{"CircuitAmortisation", func(t *testing.T) {
			gap := func(pktLen int) float64 {
				cs := BaseLatency(tiny(CircuitSpec("CS", FastControl, pktLen)))
				fr := BaseLatency(tiny(FR6(FastControl, pktLen)))
				return (cs - fr) / fr
			}
			if short, long := gap(5), gap(64); short <= 0 || long >= short {
				t.Errorf("CS base latency over FR6's: %+.0f%% at 5 flits, %+.0f%% at 64; want slower at 5 and a smaller gap at 64",
					short*100, long*100)
			}
		}},
	} {
		t.Run(shape.name, shape.check)
	}
}

func TestLineageBaseLatencyOrdering(t *testing.T) {
	// The Section 2 story in one assertion: store-and-forward pays packet
	// serialization per hop; cut-through, wormhole and VC pay link+router
	// per hop; flit reservation hides the router cycle.
	at := func(s Spec) float64 {
		return BaseLatency(s.WithMeshRadix(4).WithSampling(200, 400))
	}
	saf := at(PacketSwitchSpec("SAF2", StoreForward, FastControl, 2, 5))
	vct := at(PacketSwitchSpec("VCT2", CutThrough, FastControl, 2, 5))
	wh := at(WormholeSpec("WH8", FastControl, 8, 5))
	fr := at(FR6(FastControl, 5))
	if !(saf > vct && vct >= wh-1 && fr < wh) {
		t.Errorf("lineage ordering broken: SAF %.1f, VCT %.1f, WH %.1f, FR %.1f", saf, vct, wh, fr)
	}
}
