package frfc

import (
	"context"

	"frfc/internal/experiment"
	"frfc/internal/harness"
	"frfc/internal/profile"
	"frfc/internal/waterfall"
)

// Result reports one simulated (configuration, load) point: the measurement
// (latency, throughput, sample completion, fault and recovery ledgers) and,
// when the run was observed, an Observed sidecar beside it. Latencies and
// Cycles are in cycles; loads are fractions of network capacity (for a k×k
// mesh under uniform traffic, capacity is 4/k flits per node per cycle). It is
// the type the harness stores and the service streams, so a value read back
// from a result store is a Result.
type Result = experiment.Result

// Observed is the optional sidecar of a Result: what the observers armed on the
// run (ObserverOptions.Profile and .Waterfall, ParallelOptions.Profile and
// .Waterfall) saw, summarized deterministically. Result.Observed is nil when
// none was armed and a member is nil when its observer was not, which is how
// "never observed" differs from "observed, nothing there". Observation never
// perturbs the measurement: every other field of an observed Result is
// bit-identical to a bare run's.
type Observed = experiment.Observed

// Activity is the self-profiling summary in Observed: component ticks executed,
// the ticks among them that did work, their gap as a fraction, and the
// flit-reservation router's work units per pipeline phase.
type Activity = profile.Activity

// StageTotals is the latency-provenance summary in Observed: sampled packets
// decomposed, their summed latency, and the cycles attributed to each of the
// seven lifecycle stages, which sum to that latency exactly.
type StageTotals = waterfall.Totals

// Run simulates the spec at one offered load using the paper's measurement
// protocol: warm up until source queues stabilize, tag a packet sample, and
// run until the whole sample is delivered or saturation is detected.
func Run(s Spec, load float64) Result {
	return experiment.Run(s, load)
}

// Sweep runs the spec at each offered load — the raw material of the paper's
// latency-versus-offered-traffic figures.
func Sweep(s Spec, loads []float64) []Result {
	return experiment.Sweep(s, loads)
}

// BaseLatency measures the spec's contention-free latency in cycles.
func BaseLatency(s Spec) float64 {
	return experiment.BaseLatency(s)
}

// SaturationThroughput locates the highest sustainable offered load by
// bisection, as a fraction of capacity: SaturationSearch over the one spec on
// one worker. resolution is the search step; 0 means 1% of capacity. A search
// that fails — a spec that delivers nothing, a run that panics — panics with
// the search's error.
func SaturationThroughput(s Spec, resolution float64) float64 {
	// Only a cancelled context makes the error non-nil, and this one never is.
	rows, _ := harness.SaturationSearch(context.Background(), []Spec{s}, resolution, harness.Options{Workers: 1})
	if rows[0].Err != "" {
		panic("frfc: " + rows[0].Err)
	}
	return rows[0].Saturation
}
