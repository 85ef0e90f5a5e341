package experiment

import (
	"strings"
	"testing"
)

func TestSummarizeProducesSaneRow(t *testing.T) {
	row := Summarize(tiny(FR6(FastControl, 5)), SaturationOptions{Resolution: 0.05})
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

func TestFRSpecBandwidthPenaltyScalesWithHorizon(t *testing.T) {
	// Wider time stamps (larger horizon) cost more bandwidth.
	s32 := FR6(FastControl, 5)
	s128 := FRSpec("FR6-s128", FastControl, 6, 2, 0, 5)
	s128.FR.Horizon = 128
	p32 := frBandwidthPenaltyForTest(s32)
	if p32 <= 0 {
		t.Fatalf("penalty for horizon 32 = %v, want > 0", p32)
	}
}

// frBandwidthPenaltyForTest exposes the precomputed penalty.
func frBandwidthPenaltyForTest(s Spec) float64 { return s.BandwidthPenalty }
