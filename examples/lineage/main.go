// Flow-control lineage: the Section 2 story of the paper, measured. Each
// generation of flow control allocates buffers and bandwidth at a finer
// grain or further in advance:
//
//	store-and-forward  whole packets, hop by hop       (Cosmic Cube era)
//	virtual cut-through packet buffers, streaming       [KerKle79]
//	wormhole           flit buffers, channel held       [DalSei86]
//	virtual channels   flit buffers, channel shared     [Dally92]
//	flit reservation   everything reserved in advance   (this paper)
//
// This example runs all five on the same 8x8 mesh with the same 5-flit
// packets and fast-wire-era link timing, and prints base latency and
// saturation throughput for each — then the paper's remark on circuit
// switching (the substrate of wave switching), whose gains are "only
// realizable if the circuit setup time can be amortized over many message
// deliveries": its base latency against flit reservation's at 5 and at 64
// flits a message.
package main

import (
	"fmt"

	"frfc"
)

func main() {
	specs := []frfc.Spec{
		frfc.StoreAndForwardSpec(frfc.FastControl, 2, 5),
		frfc.CutThroughSpec(frfc.FastControl, 2, 5),
		frfc.WormholeSpec(frfc.FastControl, 8, 5),
		frfc.VC8(frfc.FastControl, 5),
		frfc.CircuitSpec(frfc.FastControl, 5),
		frfc.FR6(frfc.FastControl, 5),
	}
	labels := []string{
		"store-and-forward (2 pkt bufs)",
		"virtual cut-through (2 pkt bufs)",
		"wormhole (8 flit bufs)",
		"virtual channels (2x4 flit bufs)",
		"circuit switching (no bufs)",
		"flit reservation (6 flit bufs)",
	}

	fmt.Println("8x8 mesh, 5-flit packets, uniform traffic, 4-cycle data links")
	fmt.Printf("%-34s %12s %14s\n", "flow control", "base lat.", "saturation")
	for i, s := range specs {
		s = s.WithSampling(2500, 2000)
		base := frfc.BaseLatency(s)
		sat := frfc.SaturationThroughput(s, 0.02)
		fmt.Printf("%-34s %9.1f cy %13.0f%%\n", labels[i], base, sat*100)
	}
	fmt.Println()
	fmt.Println("Circuit setup against message length (base latency, circuit vs FR6):")
	for _, flits := range []int{5, 64} {
		cs := frfc.BaseLatency(frfc.CircuitSpec(frfc.FastControl, flits).WithSampling(300, 600))
		fr := frfc.BaseLatency(frfc.FR6(frfc.FastControl, flits).WithSampling(300, 600))
		fmt.Printf("%3d-flit messages %9.1f cy vs %6.1f cy (%+.0f%%)\n", flits, cs, fr, (cs-fr)/fr*100)
	}
	fmt.Println()
	fmt.Println("Two trends, fifty years apart: finer-grained allocation cuts the")
	fmt.Println("per-hop cost (store-and-forward -> cut-through -> wormhole), and")
	fmt.Println("smarter scheduling of the same buffers raises throughput (wormhole")
	fmt.Println("-> virtual channels -> flit reservation).")
}
