package experiment

import (
	"strings"
	"testing"

	"frfc/internal/sim"
)

func TestSummarizeProducesSaneRow(t *testing.T) {
	row, err := Summarize(tiny(FR6(FastControl, 5)), 0.05, runPlain)
	if err != nil {
		t.Fatal(err)
	}
	if row.Spec != "FR6" {
		t.Errorf("Spec = %q", row.Spec)
	}
	if row.BaseLatency <= 0 || row.LatencyAt50 < row.BaseLatency {
		t.Errorf("latencies implausible: base %.1f, at50 %.1f", row.BaseLatency, row.LatencyAt50)
	}
	if row.Throughput < 0.3 || row.Throughput > 1.0 {
		t.Errorf("throughput %.2f implausible", row.Throughput)
	}
	if row.EffectiveThroughput >= row.Throughput {
		t.Errorf("effective throughput %.3f not debited below %.3f", row.EffectiveThroughput, row.Throughput)
	}
}

func TestFormatSummary(t *testing.T) {
	rows := []SummaryRow{
		{Spec: "FR6", BaseLatency: 27, LatencyAt50: 33, Throughput: 0.77, EffectiveThroughput: 0.755},
		{Spec: "VC8", BaseLatency: 32, LatencyAt50: 39, Throughput: 0.63, EffectiveThroughput: 0.63},
	}
	out := FormatSummary("fast control, 5-flit packets", rows)
	for _, want := range []string{"fast control", "FR6", "VC8", "77%", "63%", "27.0", "39.0"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted summary missing %q:\n%s", want, out)
		}
	}
}

func TestResultString(t *testing.T) {
	r := Result{Spec: "VC8", Load: 0.63, AvgLatency: 41.5, CI95: 0.3, AcceptedLoad: 0.62}
	s := r.String()
	for _, want := range []string{"VC8", "63.0%", "41.50"} {
		if !strings.Contains(s, want) {
			t.Errorf("Result.String() = %q missing %q", s, want)
		}
	}
}

func TestNewNetworkRejectsUnknownFlow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown flow control did not panic")
		}
	}()
	s := FR6(FastControl, 5)
	s.Flow = "carrier-pigeon"
	NewNetwork(s, nil)
}

// TestNewNetworkRejectsFlowModeMismatch: a packet-switched spec whose Flow
// and PS.Mode disagree is refused by name, both ways round, instead of
// running the mode under the flow's name (SAF2 relabelled cut-through
// returned store-and-forward's latency).
func TestNewNetworkRejectsFlowModeMismatch(t *testing.T) {
	saf := PacketSwitchSpec("SAF2", StoreForward, FastControl, 2, 5)
	vct := PacketSwitchSpec("VCT2", CutThrough, FastControl, 2, 5)
	saf.Flow, vct.Flow = CutThrough, StoreForward
	for _, s := range []Spec{saf, vct} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, s.Name) || !strings.Contains(msg, string(s.Flow)) || !strings.Contains(msg, s.PS.Mode.String()) {
					t.Errorf("%s as %s running %s: panic %q, want one naming all three", s.Name, s.Flow, s.PS.Mode, msg)
				}
			}()
			NewNetwork(s.WithMeshRadix(2), nil)
		}()
	}
}

// TestFRSpecBandwidthPenaltyScalesWithHorizon: wider time stamps (a larger
// horizon) cost more bandwidth, and the debit a normalized spec carries is
// that of its own horizon, set after the preset was built, while the preset
// keeps Table 2's.
func TestFRSpecBandwidthPenaltyScalesWithHorizon(t *testing.T) {
	penalty := func(h sim.Cycle) float64 {
		s := FR6(FastControl, 5)
		s.FR.Horizon = h
		return s.Normalized().BandwidthPenalty
	}
	p8, p32, p128 := penalty(8), penalty(32), penalty(128)
	if !(p128 > p32 && p32 > p8 && p8 > 0) {
		t.Fatalf("penalty at horizon 8/32/128 = %v/%v/%v, want strictly increasing and positive", p8, p32, p128)
	}
	if preset := FR6(FastControl, 5).BandwidthPenalty; p32 != preset || preset != 5.0/256 {
		t.Fatalf("FR6's penalty = %v (normalized %v), want Table 2's 5/256", preset, p32)
	}
}
