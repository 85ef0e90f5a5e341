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
// plus the Section 4.2 buffer-occupancy statistic, the Section 5 ablations
// (all-or-nothing scheduling, VC shared pool, eager buffer allocation, wide
// control flits), the Section 2 lineage measured on one workload, and the two
// observer tables EXPERIMENTS.md quotes: where a packet's cycles go, and what
// the simulator's own ticks do.
//
// Usage:
//
//	paperfigs -all -scale quick          # everything, fast (minutes)
//	paperfigs -fig 5 -scale full         # one figure at paper scale
//	paperfigs -table 3 -workers 8        # fan the summary over 8 workers
//
// Every simulated number is a job of the internal/harness executor on one
// worker pool; -workers sizes it (0 = NumCPU) and never changes the printed
// numbers — every point has a network to itself for the run, reset from the
// point's seed to its constructed state, and rows print in spec/load order.
// One in-memory result cache spans the invocation, so a point two parts share
// simulates once; the observer tables bypass it (a cached result carries no
// observation). A failed job ends the run: exit 1, one line on stderr.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"sync"

	"frfc"
	"frfc/internal/cli"
	"frfc/internal/experiment"
	"frfc/internal/harness"
	"frfc/internal/metrics"
	"frfc/internal/profile"
	"frfc/internal/sim"
)

// scales maps -scale to the measurement effort every simulated part runs at.
var scales = map[string]func(experiment.Spec) experiment.Spec{
	"quick":    func(s experiment.Spec) experiment.Spec { return s.Scaled(3000, 2000) },
	"standard": func(s experiment.Spec) experiment.Spec { return s.Scaled(10000, 5000) },
	"full":     experiment.Spec.PaperScale,
}

// figs is one invocation: where the parts print, the scale they measure at
// and the pool, with its result cache, every simulated part runs on.
type figs struct {
	w      io.Writer
	scaled func(experiment.Spec) experiment.Spec
	pool   harness.Options
}

// satResolution is the load step every saturation search here stops at.
const satResolution = 0.02

// extras are the values of -extra, in the order -all prints them.
var extras = []string{"occupancy", "ablations", "lineage", "waterfall", "activity"}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("paperfigs", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		scale   = fs.String("scale", "quick", "measurement effort: quick, standard, or full (paper protocol)")
		workers = fs.Int("workers", 0, "worker pool size for every simulated part (0 = NumCPU); any count yields identical output")
		fig     = fs.Int("fig", 0, "regenerate one figure (5-9)")
		table   = fs.Int("table", 0, "regenerate one table (1-3)")
		extra   = fs.String("extra", "", "extra experiment: "+strings.Join(extras, ", "))
		all     = fs.Bool("all", false, "regenerate everything")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := cli.Refusal("paperfigs", stderr)
	f := figs{w: stdout, scaled: scales[*scale], pool: harness.Options{Workers: *workers, Store: &harness.Store{}}}
	switch {
	case f.scaled == nil:
		return fail("-scale %q: want quick, standard or full", *scale)
	case *fig != 0 && (*fig < 5 || *fig > 9):
		return fail("-fig %d: want 5-9", *fig)
	case *table != 0 && (*table < 1 || *table > 3):
		return fail("-table %d: want 1-3", *table)
	case *extra != "" && !slices.Contains(extras, *extra):
		return fail("-extra %q: want one of %s", *extra, strings.Join(extras, ", "))
	case !*all && *fig == 0 && *table == 0 && *extra == "":
		fs.Usage()
		return 2
	}

	for _, part := range []struct {
		selected bool
		run      func(figs) error
	}{
		{*table == 1, figs.table1}, {*table == 2, figs.table2},
		{*fig == 5, figs.figure5}, {*fig == 6, figs.figure6}, {*fig == 7, figs.figure7}, {*fig == 8, figs.figure8}, {*fig == 9, figs.figure9},
		{*table == 3, figs.table3},
		{*extra == "occupancy", figs.occupancy}, {*extra == "ablations", figs.ablations},
		{*extra == "lineage", figs.lineage}, {*extra == "waterfall", figs.waterfall}, {*extra == "activity", figs.activity},
	} {
		if !*all && !part.selected {
			continue
		}
		if err := part.run(f); err != nil {
			// A panicked job's error carries its stack after the first line.
			msg, _, _ := strings.Cut(err.Error(), "\n")
			fmt.Fprintf(stderr, "paperfigs: %s\n", msg)
			return 1
		}
	}
	return 0
}

func (f figs) table1() error {
	fmt.Fprintln(f.w, "== Table 1: storage overhead (bits per node) ==")
	fmt.Fprintf(f.w, "%-8s %10s %8s %8s %8s %8s %10s %8s\n",
		"config", "data", "ctrl", "queueptr", "out-res", "in-res", "bits/node", "flits/ch")
	for _, r := range frfc.StorageTable() {
		fmt.Fprintf(f.w, "%-8s %10d %8d %8d %8d %8d %10d %8.2f\n",
			r.Name, r.DataBuffers, r.CtrlBuffers, r.QueuePointers,
			r.OutputResTable, r.InputResTable, r.BitsPerNode, r.FlitsPerChannel)
	}
	fmt.Fprintln(f.w)
	return nil
}

func (f figs) table2() error {
	fmt.Fprintln(f.w, "== Table 2: bandwidth overhead per data flit (bits) ==")
	rows, penalty := frfc.BandwidthTable()
	labels := map[string]string{"VC": "virtual channel", "FR": "flit reservation"}
	for _, r := range rows {
		fmt.Fprintf(f.w, "%-16s: %.2f\n", labels[r.Name], r.BitsPerFlit)
	}
	fmt.Fprintf(f.w, "%-16s: %.2f%% of a 256-bit flit\n\n", "FR penalty", penalty*100)
	return nil
}

func (f figs) sweepFig(title string, specs []experiment.Spec, loads []float64) error {
	fmt.Fprintf(f.w, "== %s ==\n", title)
	fmt.Fprintf(f.w, "%-8s", "load%")
	var jobs []harness.Job
	for _, s := range specs {
		fmt.Fprintf(f.w, " %14s", s.Name)
		jobs = harness.AppendJobs(jobs, f.scaled(s), loads)
	}
	fmt.Fprintln(f.w)
	jrs, err := runJobs(f.pool, jobs)
	if err != nil {
		return fmt.Errorf("%s: %w", title, err)
	}
	for j, l := range loads {
		fmt.Fprintf(f.w, "%-8.1f", l*100)
		for i := range specs {
			if r := jrs[i*len(loads)+j].Result; r.Saturated {
				fmt.Fprintf(f.w, " %14s", "saturated")
			} else {
				fmt.Fprintf(f.w, " %14.2f", r.AvgLatency)
			}
		}
		fmt.Fprintln(f.w)
	}
	fmt.Fprintln(f.w)
	return nil
}

// scale returns the specs at the invocation's measurement effort.
func (f figs) scale(specs []experiment.Spec) []experiment.Spec {
	scaled := make([]experiment.Spec, len(specs))
	for i, s := range specs {
		scaled[i] = f.scaled(s)
	}
	return scaled
}

// runJobs resolves a part's jobs on o, in job order; the first failed job,
// naming its spec and load, is the error.
func runJobs(o harness.Options, jobs []harness.Job) ([]harness.JobResult, error) {
	jrs, err := harness.RunJobs(context.Background(), jobs, o)
	for _, jr := range jrs {
		if err == nil {
			err = jr.Failure()
		}
	}
	return jrs, err
}

// saturations searches each spec's saturation throughput on the pool, at the
// invocation's effort; the first failed search is the error.
func (f figs) saturations(specs ...experiment.Spec) ([]harness.SatResult, error) {
	rows, err := harness.SaturationSearch(context.Background(), f.scale(specs), satResolution, f.pool)
	for _, r := range rows {
		if err == nil && r.Err != "" {
			err = errors.New(r.Err)
		}
	}
	return rows, err
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

func (f figs) figure5() error {
	return f.sweepFig("Figure 5: 5-flit packets, fast control", configs("fast", 5, "VC8", "VC16", "FR6", "FR13"), loadsTo(0.90))
}

func (f figs) figure6() error {
	return f.sweepFig("Figure 6: 21-flit packets, fast control", configs("fast", 21, "VC16", "VC32", "FR6", "FR13"), loadsTo(0.80))
}

func (f figs) figure7() error {
	var specs []experiment.Spec
	for _, h := range []sim.Cycle{16, 32, 64, 128} {
		s := experiment.FR6(experiment.FastControl, 5)
		s.Name = fmt.Sprintf("FR6-s%d", h)
		s.FR.Horizon = h
		specs = append(specs, s)
	}
	return f.sweepFig("Figure 7: FR6 scheduling horizon 16-128 cycles", specs, loadsTo(0.85))
}

func (f figs) figure8() error {
	return f.sweepFig("Figure 8: FR6 leading control, leads of 1, 2, 4 cycles",
		configs("leading", 5, "FR6-lead1", "FR6-lead2", "FR6-lead4"), loadsTo(0.85))
}

// leading is the 1-cycle-wire group Figure 9 and Table 3 share: FR with a
// 1-cycle control lead against the three VC configurations.
func leading() []experiment.Spec {
	return append([]experiment.Spec{
		experiment.FRLead(1, 5),
		experiment.FRSpec("FR13-lead1", experiment.LeadingControl, 13, 4, 1, 5),
	}, configs("leading", 5, "VC8", "VC16", "VC32")...)
}

func (f figs) figure9() error {
	return f.sweepFig("Figure 9: 1-cycle leading control vs virtual channels (1-cycle wires)", leading()[:4], loadsTo(0.85))
}

func (f figs) table3() error {
	groups := []struct {
		title string
		specs []experiment.Spec
	}{
		{"fast control, 5-flit packets", configs("fast", 5, "FR6", "FR13", "VC8", "VC16", "VC32")},
		{"fast control, 21-flit packets", configs("fast", 21, "FR6", "FR13", "VC8", "VC16", "VC32")},
		{"leading control, 5-flit packets", leading()},
	}
	fmt.Fprintln(f.w, "== Table 3: summary ==")
	// One pass over every group's specs, so no group waits for the slowest
	// spec of the one before it.
	var specs []experiment.Spec
	for _, g := range groups {
		specs = append(specs, g.specs...)
	}
	rows, err := harness.SummarizeAll(context.Background(), f.scale(specs), satResolution, f.pool)
	if err != nil {
		return fmt.Errorf("table 3: %w", err)
	}
	for _, g := range groups {
		fmt.Fprint(f.w, experiment.FormatSummary(g.title, rows[:len(g.specs)]))
		fmt.Fprintln(f.w)
		rows = rows[len(g.specs):]
	}
	return nil
}

func (f figs) occupancy() error {
	fmt.Fprintln(f.w, "== Section 4.2: buffer-pool occupancy near saturation ==")
	jrs, err := runJobs(f.pool, []harness.Job{
		{Spec: f.scaled(experiment.FR6(experiment.FastControl, 21)), Load: 0.60},
		{Spec: f.scaled(experiment.VC8(experiment.FastControl, 21)), Load: 0.52},
	})
	if err != nil {
		return fmt.Errorf("occupancy: %w", err)
	}
	fr, vc := jrs[0].Result, jrs[1].Result
	fmt.Fprintf(f.w, "FR6 central pool full %.1f%% of cycles at 60%% load, its saturation edge (paper: ~40%%)\n", fr.PoolFullFraction*100)
	fmt.Fprintf(f.w, "VC8 central pool full %.1f%% of cycles at 52%% load, its saturation edge (paper: <5%%)\n\n", vc.PoolFullFraction*100)
	return nil
}

func (f figs) ablations() error {
	fmt.Fprintln(f.w, "== Section 5 ablations ==")
	fr6 := experiment.FR6(experiment.FastControl, 5)

	// Per-flit vs all-or-nothing scheduling, with wide control flits
	// (d=4) where the policies actually differ.
	perFlit := fr6
	perFlit.Name = "FR6-d4"
	perFlit.FR.LeadsPerCtrl = 4
	aon := perFlit
	aon.Name = "FR6-d4-AoN"
	aon.FR.AllOrNothing = true

	// Virtual channels with a shared buffer pool [TamFra92]: the paper
	// saw no throughput improvement.
	vq := experiment.VC8(experiment.FastControl, 5)
	vp := vq
	vp.Name = "VC8-pooled"
	vp.VC.SharedPool = true

	// Eager vs deferred buffer allocation (Figure 10): a shadow ledger
	// replays the executed schedule under allocate-at-reservation-time and
	// counts the buffer-to-buffer transfers that policy would force; the
	// executed deferred policy never needs one.
	eager := fr6
	eager.Name = "FR6-eager"
	eager.FR.TrackEagerTransfers = true

	jrs, err := runJobs(f.pool, []harness.Job{
		{Spec: f.scaled(perFlit), Load: 0.65}, {Spec: f.scaled(aon), Load: 0.65}, {Spec: f.scaled(eager), Load: 0.70},
	})
	if err != nil {
		return fmt.Errorf("ablations: %w", err)
	}
	sats, err := f.saturations(vq, vp, fr6, perFlit)
	if err != nil {
		return fmt.Errorf("ablations: %w", err)
	}
	for i, s := range []experiment.Spec{perFlit, aon} {
		r := jrs[i].Result
		fmt.Fprintf(f.w, "%-12s latency at 65%% load: %8.2f cycles (saturated=%v)\n", s.Name, r.AvgLatency, r.Saturated)
	}
	sat := func(i int) float64 { return sats[i].Saturation * 100 }
	fmt.Fprintf(f.w, "%-12s saturation: %4.0f%% of capacity\n", vq.Name, sat(0))
	fmt.Fprintf(f.w, "%-12s saturation: %4.0f%% of capacity (paper: no improvement)\n", vp.Name, sat(1))
	r := jrs[2].Result
	fmt.Fprintf(f.w, "%-12s transfers at 70%% load: %.2f per 1000 residencies (%d of %d; deferred: 0)\n",
		eager.Name, 1000*float64(r.EagerTransfers)/float64(r.EagerResidencies), r.EagerTransfers, r.EagerResidencies)

	// Wide control flits: one control flit leading d=4 data flits saves
	// control bandwidth at the cost of coarser admission.
	fmt.Fprintf(f.w, "%-12s saturation: %4.0f%% of capacity (d=1)\n", fr6.Name, sat(2))
	fmt.Fprintf(f.w, "%-12s saturation: %4.0f%% of capacity (d=4)\n", perFlit.Name, sat(3))
	fmt.Fprintln(f.w)
	return nil
}

// lineage measures every flow-control method of the paper's Section 2 on one
// workload — each generation allocates buffers and bandwidth at a finer grain
// or further in advance — and then the paper's remark on circuit switching,
// whose set-up "must be amortized over many message deliveries": its base
// latency against flit reservation's at 5 and at 64 flits a message.
func (f figs) lineage() error {
	fmt.Fprintln(f.w, "== Section 2 lineage: 5-flit packets, fast control ==")
	labels := []string{
		"store-and-forward (2 pkt bufs)", "virtual cut-through (2 pkt bufs)", "wormhole (8 flit bufs)",
		"virtual channels (2x4 flit bufs)", "circuit switching (no bufs)", "flit reservation (6 flit bufs)",
	}
	rows, err := f.saturations(configs("fast", 5, "SAF", "VCT", "WH", "VC8", "CS", "FR6")...)
	if err != nil {
		return fmt.Errorf("lineage: %w", err)
	}
	lengths := []int{5, 64}
	var base []harness.Job
	for _, flits := range lengths {
		for _, s := range f.scale(configs("fast", flits, "CS", "FR6")) {
			spec, load := experiment.BasePoint(s)
			base = append(base, harness.Job{Spec: spec, Load: load})
		}
	}
	jrs, err := runJobs(f.pool, base)
	if err != nil {
		return fmt.Errorf("lineage: %w", err)
	}
	fmt.Fprintf(f.w, "%-34s %12s %14s\n", "flow control", "base lat.", "saturation")
	for i, r := range rows {
		fmt.Fprintf(f.w, "%-34s %9.1f cy %13.0f%%\n", labels[i], r.BaseLatency, r.Saturation*100)
	}
	fmt.Fprintln(f.w, "circuit set-up against message length (base latency, circuit vs FR6):")
	for i, flits := range lengths {
		cs, fr := jrs[2*i].Result.AvgLatency, jrs[2*i+1].Result.AvgLatency
		fmt.Fprintf(f.w, "%3d-flit messages %9.1f cy vs %6.1f cy (%+.0f%%)\n", flits, cs, fr, (cs-fr)/fr*100)
	}
	fmt.Fprintln(f.w)
	return nil
}

// observedLoads is the load axis of the two observer tables.
var observedLoads = []float64{0.20, 0.40, 0.60}

// waterfall prints where a packet's cycles go: mean cycles per lifecycle
// stage, which sum exactly to the mean latency (asserted per packet, the runs
// being under Check), for flit reservation against virtual channels.
func (f figs) waterfall() error {
	fmt.Fprintln(f.w, "== Latency provenance: mean cycles per packet by lifecycle stage, 5-flit packets, fast control ==")
	var jobs []harness.Job
	for _, s := range configs("fast", 5, "FR6", "VC8") {
		s.Check = true
		jobs = harness.AppendJobs(jobs, f.scaled(s), observedLoads)
	}
	o := f.pool
	o.Store = nil // a cached result carries no observation
	o.Probe = func() *metrics.Probe { return metrics.NewProbe(0, false, false, true) }
	jrs, err := runJobs(o, jobs)
	if err != nil {
		return fmt.Errorf("waterfall: %w", err)
	}
	fmt.Fprintf(f.w, "%-6s %5s  %7s %7s %7s %7s %7s %7s %7s  %8s\n",
		"config", "load", "queue", "reserve", "arb", "stall", "sched", "link", "drain", "total")
	for _, jr := range jrs {
		v := jr.Result.Observed.Waterfall.View()
		fmt.Fprintf(f.w, "%-6s %4.0f%% ", jr.Result.Spec, jr.Result.Load*100)
		for _, st := range v.Stages {
			fmt.Fprintf(f.w, " %7.2f", st.Mean)
		}
		fmt.Fprintf(f.w, "  %8.2f\n", v.MeanLatency)
	}
	fmt.Fprintln(f.w)
	return nil
}

// activity prints what the cycle-stepped kernel's ticks do on FR6: how many
// component ticks a run executes, the share of them that found no work —
// overall and per component class — and the flit-reservation router's work
// split by pipeline phase. Every value is a function of the simulation alone;
// the host's allocation deltas the same registry samples are left out.
func (f figs) activity() error {
	fmt.Fprintln(f.w, "== Simulator self-profile: FR6 component ticks and the share that did no work, 5-flit packets, fast control ==")
	fmt.Fprintf(f.w, "%-5s %10s %6s %7s %6s %6s  %6s %6s %7s %7s\n",
		"load", "ticks", "idle%", "router%", "ni%", "sink%", "sched%", "arb%", "switch%", "credit%")
	o := f.pool
	o.Store = nil // a cached result carries no observation
	o.Probe = func() *metrics.Probe { return metrics.NewProbe(0, false, true, false) }
	var probes sync.Map // load -> the probe its job ran with
	o.Collect = func(j harness.Job, p *metrics.Probe) { probes.Store(j.Load, p) }
	jrs, err := runJobs(o, harness.AppendJobs(nil, f.scaled(experiment.FR6(experiment.FastControl, 5)), observedLoads))
	if err != nil {
		return fmt.Errorf("activity: %w", err)
	}
	for _, jr := range jrs {
		p, _ := probes.Load(jr.Job.Load)
		ticks, active := p.(*metrics.Probe).Prof.ComponentTotals()
		idle := func(c profile.Component) float64 { return 100 * (1 - float64(active[c])/float64(ticks[c])) }
		a := jr.Result.Observed.Activity
		work := float64(a.SchedWork+a.ArbWork+a.SwitchWork+a.CreditWork) / 100
		fmt.Fprintf(f.w, "%4.0f%% %10d %6.1f %7.1f %6.1f %6.1f  %6.1f %6.1f %7.1f %7.1f\n",
			jr.Job.Load*100, a.Ticks, 100*a.IdleFraction, idle(profile.CompRouter), idle(profile.CompNI), idle(profile.CompSink),
			float64(a.SchedWork)/work, float64(a.ArbWork)/work, float64(a.SwitchWork)/work, float64(a.CreditWork)/work)
	}
	fmt.Fprintln(f.w)
	return nil
}
