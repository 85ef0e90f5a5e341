// Fault tolerance study: Section 5 of the paper argues that when control
// information or data flits are corrupted, a flit-reservation network can
// simply drop the affected data flits — the next hop sees an idle pattern
// where its reservation table expected data, and "the collective state of
// the scheduling tables will return to a consistent state with no lost
// buffers or stalled links".
//
// This example injects data-flit loss at increasing rates and shows exactly
// that behavior: the network keeps running at full throughput for the
// surviving traffic, every intact packet is delivered, and every affected
// packet is detected as lost at its destination's reassembly schedule (where
// an end-to-end protocol would trigger retransmission).
//
// The second half runs that end-to-end protocol: the destination's loss
// detection drives a NACK back to the source, which retries with exponential
// backoff under a bounded budget. Delivery returns to 100% through
// percent-level loss rates — the retries simply cost latency. Corrupted
// control flits never need any of this; link-level retransmission recovers
// them below the flow-control layer, at the price of arriving late.
package main

import (
	"fmt"

	"frfc"
)

func main() {
	fmt.Println("FR6, 8x8 mesh, 5-flit packets, 50% offered load, fast control")
	fmt.Printf("%-12s %14s %12s %12s %14s\n", "fault rate", "flits dropped", "pkts lost", "latency", "accepted")
	for _, rate := range []float64{0, 0.0001, 0.001, 0.01} {
		spec, err := frfc.Custom(fmt.Sprintf("FR6-loss%.4f", rate), frfc.Options{
			FlitReservation: true,
			DataBuffers:     6,
			CtrlVCs:         2,
			Wiring:          frfc.FastControl,
			DataFaultRate:   rate,
		})
		if err != nil {
			panic(err)
		}
		r := frfc.Run(spec.WithSampling(4000, 2500), 0.50)
		fmt.Printf("%-12.4f %14d %12d %9.1f cy %13.1f%%\n",
			rate, r.DroppedFlits, r.LostPackets, r.AvgLatency, r.AcceptedLoad*100)
	}
	fmt.Println()
	fmt.Println("Latency for delivered packets barely moves and the network never")
	fmt.Println("wedges: a dropped flit costs exactly one wasted channel slot per")
	fmt.Println("remaining hop and nothing else. Loss detection is end-to-end, via")
	fmt.Println("the hole it leaves in the destination's reassembly schedule.")

	fmt.Println()
	fmt.Println("Recovery layer: same loss detection, now driving NACKs and source")
	fmt.Println("retries (budget 8, exponential backoff). Control links additionally")
	fmt.Println("corrupt 1% of control flits, recovered by link-level retransmission.")
	fmt.Println()
	fmt.Printf("%-12s %12s %12s %12s %14s\n", "fault rate", "retried", "abandoned", "ctrl corrupt", "retry latency")
	for _, rate := range []float64{0.001, 0.01, 0.05} {
		spec, err := frfc.Custom(fmt.Sprintf("FR6-retry%.3f", rate), frfc.Options{
			FlitReservation: true,
			DataBuffers:     6,
			CtrlVCs:         2,
			Wiring:          frfc.FastControl,
			DataFaultRate:   rate,
			CtrlFaultRate:   0.01,
			RetryLimit:      8,
			WatchdogCycles:  100000,
		})
		if err != nil {
			panic(err)
		}
		r := frfc.Run(spec.WithSampling(4000, 2500), 0.50)
		fmt.Printf("%-12.3f %12d %12d %12d %11.1f cy\n",
			rate, r.RetriedPackets, r.AbandonedPackets, r.CtrlCorrupted, r.AvgRetryLatency)
	}

	fmt.Println()
	fmt.Println("The reliability claim, measured to full resolution per row:")
	fmt.Println()
	for _, p := range frfc.FaultSweep(frfc.FaultSweepOptions{ResolveOptions: frfc.ResolveOptions{Packets: 200}}) {
		fmt.Println(p)
	}
}
