// Latency provenance: where does each packet's latency actually come from?
//
// Mean latency is a single number; the waterfall splits it into the seven
// lifecycle stages every packet passes through — source queueing, reservation
// handshake, arbitration, backpressure stalls, scheduled-slot residence, wire
// traversal, and destination drain — and the stages sum *exactly* to the
// measured latency, cycle for cycle. This example arms
// ObserverOptions.Waterfall on flit-reservation (FR6) and virtual-channel
// (VC8) runs at 20/40/60% offered load and prints the per-stage means side
// by side: FR's latency lives in the reservation handshake and the scheduled
// slots it buys (contention moves into Sched as load rises, not into
// arbitration), while VC's congestion shows up as Arb plus Stall —
// backpressure the reservation protocol was designed to pre-pay.
//
// The waterfall is observation-only: the run's measurement is bit-identical
// with it on or off, and the decomposition is exported in the Result's
// Observed.Waterfall, as JSON/CSV artifacts (frsim -waterfall, sweep
// -waterfall), and as Prometheus metrics when a sweep runs with -status-addr.
package main

import (
	"fmt"

	"frfc"
)

var stages = []string{"queue", "reserve", "arb", "stall", "sched", "link", "drain"}

func main() {
	specs := []frfc.Spec{
		frfc.FR6(frfc.FastControl, 5),
		frfc.VC8(frfc.FastControl, 5),
	}
	loads := []float64{0.20, 0.40, 0.60}

	fmt.Println("mean cycles per packet by lifecycle stage (stages sum exactly to the mean):")
	fmt.Printf("%-6s %5s  %7s %7s %7s %7s %7s %7s %7s  %8s\n",
		"config", "load", stages[0], stages[1], stages[2], stages[3],
		stages[4], stages[5], stages[6], "total")
	for _, spec := range specs {
		for _, load := range loads {
			obs := frfc.NewObserver(frfc.ObserverOptions{Waterfall: true})
			r := frfc.RunObserved(spec.WithCheck(true), load, obs)
			wf := r.Observed.Waterfall
			if wf.Packets == 0 {
				fmt.Printf("%-6s %4.0f%%  no decomposed packets (saturated)\n",
					spec.Name(), load*100)
				continue
			}
			fmt.Printf("%-6s %4.0f%% ", spec.Name(), load*100)
			total := 0.0
			for _, st := range wf.View().Stages {
				fmt.Printf(" %7.2f", st.Mean)
				total += st.Mean
			}
			fmt.Printf("  %8.2f\n", total)
		}
	}

	// The one-line summary names the dominant stage — the headline a
	// dashboard would show next to the latency number.
	for _, spec := range specs {
		obs := frfc.NewObserver(frfc.ObserverOptions{Waterfall: true})
		frfc.RunObserved(spec.WithCheck(true), 0.40, obs)
		fmt.Printf("\n%s at 40%%: %s\n", spec.Name(), obs.WaterfallSummary())
	}
}
