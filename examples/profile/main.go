// Simulator self-profiling: where do the simulated cycles actually go?
//
// Every component of the simulated network — router, network interface,
// sink — is ticked every cycle whether or not it has work, so the
// simulator's own hot path is dominated by components doing nothing. This
// example arms ObserverOptions.Profile on a standard 8x8 uniform-random run
// and prints what the activity accounting sees: the idle-fraction heatmap
// across the mesh (corner and edge routers idle more — fewer routes cross
// them), the three hottest routers (the mesh center, where dimension-order
// routes concentrate), and the flit-reservation router's per-phase work
// split (scheduling, arbitration, switch traversal, credit handling).
//
// Profiling is observation-only: the run's measurement is bit-identical with
// it on or off, and the accounting itself is exported in the Result's
// Observed.Activity, as JSON/CSV artifacts (frsim -profile/-idle-csv), and as
// Prometheus gauges when a sweep runs with -status-addr.
package main

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"

	"frfc"
)

func main() {
	spec := frfc.FR6(frfc.FastControl, 5)
	obs := frfc.NewObserver(frfc.ObserverOptions{Profile: true})
	res := frfc.RunObserved(spec, 0.40, obs)

	fmt.Printf("%s, 8x8 mesh, 40%% offered load: avg latency %.1f cycles, accepted %.1f%%cap\n",
		spec.Name(), res.AvgLatency, res.AcceptedLoad*100)
	fmt.Printf("activity: %s\n\n", obs.ProfileSummary())

	// The k×k heatmap: each cell is the fraction of that node's *router*
	// ticks that did no work (interfaces and sinks idle far more — the
	// one-line summary above splits the components out).
	fmt.Println("router idle fraction by node, percent (row y=0 first):")
	for _, row := range idleGrid(obs) {
		for _, v := range row {
			fmt.Printf(" %5.1f", v*100)
		}
		fmt.Println()
	}

	fmt.Println("\nhottest routers (highest active-tick fraction):")
	for i, h := range obs.HottestRouters(3) {
		fmt.Printf("  %d. router %2d at (%d,%d): %.1f%% of ticks active\n",
			i+1, h.Node, h.X, h.Y, h.ActiveFraction*100)
	}

	a := res.Observed.Activity
	work := a.SchedWork + a.ArbWork + a.SwitchWork + a.CreditWork
	fmt.Printf("\nFR router phase work (%d items): sched %.1f%%, arb %.1f%%, switch %.1f%%, credit %.1f%%\n",
		work,
		100*float64(a.SchedWork)/float64(work),
		100*float64(a.ArbWork)/float64(work),
		100*float64(a.SwitchWork)/float64(work),
		100*float64(a.CreditWork)/float64(work))
}

// idleGrid reads the k×k idle fractions back out of the observer's CSV
// export: one row per mesh row, a "#" comment header first.
func idleGrid(obs *frfc.Observer) [][]float64 {
	var buf bytes.Buffer
	if err := obs.WriteIdleCSV(&buf); err != nil {
		panic(err)
	}
	var grid [][]float64
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		var row []float64
		for _, cell := range strings.Split(line, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(cell), 64)
			if err != nil {
				panic(err)
			}
			row = append(row, v)
		}
		grid = append(grid, row)
	}
	return grid
}
