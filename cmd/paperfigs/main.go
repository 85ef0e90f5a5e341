// Command paperfigs regenerates every table and figure of the paper's
// evaluation section from the simulator:
//
//	Table 1  storage overhead breakdown (analytic)
//	Table 2  bandwidth overhead per data flit (analytic)
//	Figure 5 latency vs offered traffic, 5-flit packets, fast control
//	Figure 6 latency vs offered traffic, 21-flit packets, fast control
//	Figure 7 scheduling-horizon sweep (16..128 cycles) on FR6
//	Figure 8 leading control with 1-, 2- and 4-cycle leads
//	Figure 9 1-cycle leading control vs virtual channels on 1-cycle wires
//	Table 3  summary: base latency, latency at 50% capacity, saturation
//	         throughput for every configuration
//
// plus the Section 4.2 buffer-occupancy statistic and the Section 5
// ablations (all-or-nothing scheduling, VC shared pool, eager buffer
// allocation).
//
// Usage:
//
//	paperfigs -all -scale quick          # everything, fast (minutes)
//	paperfigs -fig 5 -scale full         # one figure at paper scale
//	paperfigs -table 3 -workers 8        # fan the summary over 8 workers
//
// The sweeps and Table 3 run on the internal/harness worker pool; -workers
// sizes it (0 = NumCPU) and never changes the printed numbers — every point
// owns its own network and RNG, and rows print in spec/load order.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"frfc/internal/experiment"
	"frfc/internal/harness"
	"frfc/internal/overhead"
	"frfc/internal/sim"
)

var (
	scaleFlag   = flag.String("scale", "quick", "measurement effort: quick, standard, or full (paper protocol)")
	workersFlag = flag.Int("workers", 0, "worker pool size for the sweeps (0 = NumCPU); any count yields identical output")
)

func pool() harness.Options { return harness.Options{Workers: *workersFlag} }

func scaled(s experiment.Spec) experiment.Spec {
	switch *scaleFlag {
	case "quick":
		return s.Scaled(3000, 2000)
	case "standard":
		return s.Scaled(10000, 5000)
	case "full":
		return s.PaperScale()
	default:
		fmt.Fprintf(os.Stderr, "paperfigs: unknown scale %q\n", *scaleFlag)
		os.Exit(2)
		return s
	}
}

func main() {
	var (
		fig   = flag.Int("fig", 0, "regenerate one figure (5-9)")
		table = flag.Int("table", 0, "regenerate one table (1-3)")
		extra = flag.String("extra", "", "extra experiment: occupancy, ablations")
		all   = flag.Bool("all", false, "regenerate everything")
	)
	flag.Parse()

	ran := false
	for _, part := range []struct {
		selected bool
		run      func()
	}{
		{*table == 1, table1}, {*table == 2, table2},
		{*fig == 5, figure5}, {*fig == 6, figure6}, {*fig == 7, figure7}, {*fig == 8, figure8}, {*fig == 9, figure9},
		{*table == 3, table3},
		{*extra == "occupancy", occupancy}, {*extra == "ablations", ablations},
	} {
		if *all || part.selected {
			part.run()
			ran = true
		}
	}
	if !ran {
		flag.Usage()
		os.Exit(2)
	}
}

func table1() {
	fmt.Println("== Table 1: storage overhead (bits per node) ==")
	type cfg struct {
		name string
		b    overhead.StorageBreakdown
	}
	cfgs := []cfg{
		{"VC8", overhead.VCStorage(overhead.VCParams{FlitBits: 256, TypeBits: 2, DataBuffers: 8, VCs: 2, Ports: 5})},
		{"VC16", overhead.VCStorage(overhead.VCParams{FlitBits: 256, TypeBits: 2, DataBuffers: 16, VCs: 4, Ports: 5})},
		{"VC32", overhead.VCStorage(overhead.VCParams{FlitBits: 256, TypeBits: 2, DataBuffers: 32, VCs: 8, Ports: 5})},
		{"FR6", overhead.FRStorage(overhead.FRParams{FlitBits: 256, TypeBits: 2, DataBuffers: 6, CtrlBuffers: 6, CtrlVCs: 2, Leads: 1, Horizon: 32, Ports: 5})},
		{"FR13", overhead.FRStorage(overhead.FRParams{FlitBits: 256, TypeBits: 2, DataBuffers: 13, CtrlBuffers: 12, CtrlVCs: 4, Leads: 1, Horizon: 32, Ports: 5})},
	}
	fmt.Printf("%-8s %10s %8s %8s %8s %8s %10s %8s\n",
		"config", "data", "ctrl", "queueptr", "out-res", "in-res", "bits/node", "flits/ch")
	for _, c := range cfgs {
		fmt.Printf("%-8s %10d %8d %8d %8d %8d %10d %8.2f\n",
			c.name, c.b.DataBuffers, c.b.CtrlBuffers, c.b.QueuePointers,
			c.b.OutputResTable, c.b.InputResTable, c.b.BitsPerNode(), c.b.FlitsPerInput(256, 5))
	}
	fmt.Println()
}

func table2() {
	fmt.Println("== Table 2: bandwidth overhead per data flit (bits) ==")
	vcp := overhead.BandwidthParams{DestBits: 6, PacketLen: 5, VCs: 2}
	frp := overhead.BandwidthParams{DestBits: 6, PacketLen: 5, VCs: 2, Leads: 1, Horizon: 32}
	fmt.Printf("virtual channel : %.2f\n", overhead.VCBandwidthPerFlit(vcp))
	fmt.Printf("flit reservation: %.2f\n", overhead.FRBandwidthPerFlit(frp))
	fmt.Printf("FR penalty      : %.2f%% of a 256-bit flit\n\n", overhead.FRBandwidthPenalty(frp, vcp, 256)*100)
}

func sweepFig(title string, specs []experiment.Spec, loads []float64) {
	fmt.Printf("== %s ==\n", title)
	fmt.Printf("%-8s", "load%")
	for _, s := range specs {
		fmt.Printf(" %14s", s.Name)
	}
	fmt.Println()
	toRun := make([]experiment.Spec, len(specs))
	for i, s := range specs {
		toRun[i] = scaled(s)
	}
	rows, err := harness.SweepSpecs(context.Background(), toRun, loads, harness.SweepOptions{Options: pool()})
	if err != nil {
		fmt.Fprintf(os.Stderr, "paperfigs: %s: %v\n", title, err)
		os.Exit(1)
	}
	for j, l := range loads {
		fmt.Printf("%-8.1f", l*100)
		for i := range specs {
			jr := rows[i][j]
			switch {
			case jr.Err != "":
				fmt.Printf(" %14s", "failed")
			case jr.Result.Saturated:
				fmt.Printf(" %14s", "saturated")
			default:
				fmt.Printf(" %14.2f", jr.Result.AvgLatency)
			}
		}
		fmt.Println()
	}
	fmt.Println()
}

// loadsTo is the figures' load axis: 10% of capacity to hi in steps of 5%.
func loadsTo(hi float64) []float64 {
	loads, err := experiment.Grid{From: 0.10, To: hi, Step: 0.05}.LoadPoints()
	if err != nil {
		panic(err)
	}
	return loads
}

// configs resolves the rows of a figure or table that the shared vocabulary
// names, through the grid cmd/sweep and the campaign service expand.
func configs(wiring string, pktLen int, names ...string) []experiment.Spec {
	specs, err := experiment.Grid{Configs: names, Wiring: wiring, PacketLen: pktLen}.Specs()
	if err != nil {
		panic(err)
	}
	return specs
}

func figure5() {
	sweepFig("Figure 5: 5-flit packets, fast control", configs("fast", 5, "VC8", "VC16", "FR6", "FR13"), loadsTo(0.90))
}

func figure6() {
	sweepFig("Figure 6: 21-flit packets, fast control", configs("fast", 21, "VC16", "VC32", "FR6", "FR13"), loadsTo(0.80))
}

func figure7() {
	var specs []experiment.Spec
	for _, h := range []sim.Cycle{16, 32, 64, 128} {
		s := experiment.FR6(experiment.FastControl, 5)
		s.Name = fmt.Sprintf("FR6-s%d", h)
		s.FR.Horizon = h
		specs = append(specs, s)
	}
	sweepFig("Figure 7: FR6 scheduling horizon 16-128 cycles", specs, loadsTo(0.85))
}

func figure8() {
	sweepFig("Figure 8: FR6 leading control, leads of 1, 2, 4 cycles",
		configs("leading", 5, "FR6-lead1", "FR6-lead2", "FR6-lead4"), loadsTo(0.85))
}

func figure9() {
	fr13 := experiment.FRSpec("FR13-lead1", experiment.LeadingControl, 13, 4, 1, 5)
	sweepFig("Figure 9: 1-cycle leading control vs virtual channels (1-cycle wires)",
		[]experiment.Spec{
			experiment.FRLead(1, 5),
			fr13,
			experiment.VC8(experiment.LeadingControl, 5),
			experiment.VC16(experiment.LeadingControl, 5),
		}, loadsTo(0.85))
}

func table3() {
	o := experiment.SaturationOptions{Resolution: 0.02}
	groups := []struct {
		title string
		specs []experiment.Spec
	}{
		{"fast control, 5-flit packets", configs("fast", 5, "FR6", "FR13", "VC8", "VC16", "VC32")},
		{"fast control, 21-flit packets", configs("fast", 21, "FR6", "FR13", "VC8", "VC16", "VC32")},
		{"leading control, 5-flit packets", []experiment.Spec{
			experiment.FRLead(1, 5),
			experiment.FRSpec("FR13-lead1", experiment.LeadingControl, 13, 4, 1, 5),
			experiment.VC8(experiment.LeadingControl, 5),
			experiment.VC16(experiment.LeadingControl, 5),
			experiment.VC32(experiment.LeadingControl, 5),
		}},
	}
	fmt.Println("== Table 3: summary ==")
	for _, g := range groups {
		specs := make([]experiment.Spec, len(g.specs))
		for i, s := range g.specs {
			specs[i] = scaled(s)
		}
		rows, err := harness.SummarizeAll(context.Background(), specs, o, pool())
		if err != nil {
			fmt.Fprintf(os.Stderr, "paperfigs: table 3: %v\n", err)
			os.Exit(1)
		}
		fmt.Print(experiment.FormatSummary(g.title, rows))
		fmt.Println()
	}
}

func occupancy() {
	fmt.Println("== Section 4.2: buffer-pool occupancy near saturation ==")
	fr := experiment.Run(scaled(experiment.FR6(experiment.FastControl, 21)), 0.60)
	vc := experiment.Run(scaled(experiment.VC8(experiment.FastControl, 21)), 0.52)
	fmt.Printf("FR6 central pool full %.1f%% of cycles at 60%% load, its saturation edge (paper: ~40%%)\n", fr.PoolFullFraction*100)
	fmt.Printf("VC8 central pool full %.1f%% of cycles at 52%% load, its saturation edge (paper: <5%%)\n\n", vc.PoolFullFraction*100)
}

func ablations() {
	fmt.Println("== Section 5 ablations ==")

	// Per-flit vs all-or-nothing scheduling, with wide control flits
	// (d=4) where the policies actually differ.
	perFlit := experiment.FR6(experiment.FastControl, 5)
	perFlit.Name = "FR6-d4"
	perFlit.FR.LeadsPerCtrl = 4
	aon := perFlit
	aon.Name = "FR6-d4-AoN"
	aon.FR.AllOrNothing = true
	for _, s := range []experiment.Spec{perFlit, aon} {
		r := experiment.Run(scaled(s), 0.65)
		fmt.Printf("%-12s latency at 65%% load: %8.2f cycles (saturated=%v)\n", s.Name, r.AvgLatency, r.Saturated)
	}

	// Virtual channels with a shared buffer pool [TamFra92]: the paper
	// saw no throughput improvement.
	vq := experiment.VC8(experiment.FastControl, 5)
	vp := vq
	vp.Name = "VC8-pooled"
	vp.VC.SharedPool = true
	o := experiment.SaturationOptions{Resolution: 0.02}
	fmt.Printf("%-12s saturation: %4.0f%% of capacity\n", vq.Name, experiment.SaturationThroughput(scaled(vq), o)*100)
	fmt.Printf("%-12s saturation: %4.0f%% of capacity (paper: no improvement)\n", vp.Name, experiment.SaturationThroughput(scaled(vp), o)*100)
	fmt.Println()
}
