package frfc

import (
	"context"

	"frfc/internal/experiment"
	"frfc/internal/harness"
	"frfc/internal/metrics"
)

// Result reports one simulated (configuration, load) point: the measurement
// (latency, throughput, sample completion, fault and recovery ledgers) and,
// when the run was observed, an Observed sidecar beside it: what a
// profiling or waterfall observer saw, summarized deterministically (nil when
// none was armed). Latencies and Cycles are in cycles; loads are fractions of
// network capacity (for a k×k mesh under uniform traffic, capacity is 4/k
// flits per node per cycle). It is the type the harness stores and the
// service streams, so a value read back from a result store is a Result.
type Result = experiment.Result

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

// SaturationThroughput locates the highest sustainable offered load by
// bisection, as a fraction of capacity, on one worker. resolution is the
// search step; 0 means 1% of capacity. A search that fails — a spec that
// delivers nothing, a run that panics — panics with the search's error.
func SaturationThroughput(s Spec, resolution float64) float64 {
	// Only a cancelled context makes the error non-nil, and this one never is.
	rows, _ := harness.SaturationSearch(context.Background(), []Spec{s}, resolution, harness.Options{Workers: 1})
	if rows[0].Err != "" {
		panic("frfc: " + rows[0].Err)
	}
	return rows[0].Saturation
}

// ObserverOptions selects what an Observer collects: per-router metrics, a
// flit trace, a per-epoch time series, the simulator's self-profile and the
// latency waterfall.
type ObserverOptions = metrics.Options

// Observer is the set of collectors one run carries: counters, trace, time
// series, self-profile and stage ledger. Create one with NewObserver and pass
// it to RunObserved; the profile and waterfall summaries then ride in
// Result.Observed, and cmd/frsim's flags write every collector to a file.
type Observer = metrics.Probe

// NewObserver builds an observer per the options. With every option off it
// returns a valid observer that collects nothing and costs the simulation hot
// path one nil check per event site.
func NewObserver(o ObserverOptions) *Observer {
	return metrics.NewProbe(o)
}

// RunObserved is Run with the observer attached to the network for the whole
// simulation. A nil observer makes it identical to Run; instrumentation is
// observation-only, so the Result's measurement is bit-identical either way.
func RunObserved(s Spec, load float64, obs *Observer) Result {
	r, _ := experiment.RunInstrumented(context.Background(), s, load, obs, nil)
	return r
}
