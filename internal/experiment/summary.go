package experiment

import (
	"fmt"
	"strings"
)

// SummaryRow is one column of the paper's Table 3 for one configuration:
// base latency, latency at 50% capacity, and saturation throughput.
type SummaryRow struct {
	Spec                string
	BaseLatency         float64
	LatencyAt50         float64
	Throughput          float64 // raw saturation load fraction
	EffectiveThroughput float64 // debited by the bandwidth penalty
}

// Summarize measures one spec's Table 3 row, executing every point through run
// as Bisect does; the base latency is the one the saturation search
// calibrated against. An error from run ends the row.
func Summarize(s Spec, resolution float64, run func(Spec, float64) (Result, error)) (SummaryRow, error) {
	s = s.withDefaults()
	sat, base, err := Bisect(s, resolution, run)
	if err != nil {
		return SummaryRow{}, err
	}
	at50, err := run(s, 0.50)
	if err != nil {
		return SummaryRow{}, err
	}
	return SummaryRow{
		Spec:                s.Name,
		BaseLatency:         base,
		LatencyAt50:         at50.AvgLatency,
		Throughput:          sat,
		EffectiveThroughput: sat * (1 - s.BandwidthPenalty),
	}, nil
}

// FormatSummary renders rows as a text table in Table 3's layout.
func FormatSummary(title string, rows []SummaryRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-14s %14s %22s %20s\n", "config", "base latency", "latency @50% capacity", "throughput (%cap)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %11.1f cyc %18.1f cyc %13.0f%% (%.0f%% eff)\n",
			r.Spec, r.BaseLatency, r.LatencyAt50, r.Throughput*100, r.EffectiveThroughput*100)
	}
	return b.String()
}
