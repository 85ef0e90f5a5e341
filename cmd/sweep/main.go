// Command sweep produces latency-versus-offered-traffic series — the raw
// data behind the paper's Figures 5, 6, 8 and 9 — for one or more named
// configurations, as aligned text columns suitable for plotting.
//
// Points execute concurrently on a worker pool (-workers, default NumCPU);
// any worker count produces byte-identical tables because every point has a
// network to itself for the run, reset from the point's seed to its
// constructed state. With -out the results stream to an append-only
// JSONL store keyed by each point's content hash, and -resume reloads that
// store first so an interrupted campaign re-runs only what is missing —
// re-invoking an identical, completed sweep executes zero new simulations.
// -timeout bounds each point; a point that trips it (or panics) is reported
// failed without disturbing the rest. -progress streams jobs-done/total and
// an ETA to stderr.
//
// Usage:
//
//	sweep -configs FR6,FR13,VC8,VC16 -wiring fast -pktlen 5
//	sweep -configs FR6,VC32 -pktlen 21 -from 0.1 -to 0.9 -step 0.05
//	sweep -configs FR6,VC8 -workers 8 -out results.jsonl -progress
//	sweep -configs FR6,VC8 -out results.jsonl -resume   # finish a killed run
//	sweep -configs FR6,VC8 -profile profile.json        # self-profiling campaign summary
//	sweep -configs FR6,VC8 -waterfall waterfall.json    # per-stage latency provenance
//
// With -adaptive it skips the fixed load grid and bisects each
// configuration's saturation throughput in O(log 1/resolution) runs,
// reporting one row per configuration (-step doubles as the bisection
// resolution; -from and -to, which the search does not read, are refused):
//
//	sweep -configs FR6,FR13,VC8 -adaptive -step 0.02
//
// With -faults it instead sweeps data-flit loss rates on the FR6 network,
// comparing detection-only against the end-to-end retry layer (cells also
// fan out over -workers):
//
//	sweep -faults -retrylimit 8 -packets 400
//
// With -reliability it sweeps hard-fault scenarios — scheduled link and
// router outages under fault-aware table routing — and reports graceful
// degradation: delivered fraction, fast-failed unreachable packets, and how
// completely latency recovers after a repair. -scenario substitutes a custom
// schedule for the default set:
//
//	sweep -reliability -retrylimit 8 -check
//	sweep -scenario "down 5-6 @400; up 5-6 @900" -retrylimit 8
//
// With -integrity it sweeps link bit-error rates on the FR6 network and
// reports silent-corruption tolerance: each rate runs once with the
// end-to-end payload check on and once with it off, alongside the full
// corruption ledger (flits corrupted, hop-CRC catches, escapes, phantom
// reservations, reclaimed slots):
//
//	sweep -integrity -check
//	sweep -integrity -bers 0,1e-3,1e-2 -crc-bits 8 -retrylimit 8
//
// With -chaos it runs one deterministic chaos campaign per intensity —
// composed soft loss, bit errors, link flaps, corruption spikes and (at
// intensity >= 0.75) router kills, all expanded from -chaos-seed — and
// reports how much traffic survived:
//
//	sweep -chaos -check
//	sweep -chaos -intensities 0.25,0.5,1 -chaos-seed 7
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"

	"frfc/internal/cli"
	"frfc/internal/core"
	"frfc/internal/experiment"
	"frfc/internal/harness"
	"frfc/internal/metrics"
	"frfc/internal/noc"
	"frfc/internal/profile"
	"frfc/internal/status"
	"frfc/internal/topology"
	"frfc/internal/waterfall"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its environment made explicit, so tests can drive the
// whole command and compare output bytes across worker counts.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		configs = fs.String("configs", "FR6,VC8", "comma-separated configs: "+experiment.ConfigNames)
		from    = fs.Float64("from", 0.10, "first offered load (fraction of capacity)")
		to      = fs.Float64("to", 0.90, "last offered load")
		step    = fs.Float64("step", 0.10, "load step (with -adaptive: bisection resolution)")
		csv     = fs.Bool("csv", false, "emit comma-separated values (load%, then avg latency per config; empty cell = saturated)")

		workers    = fs.Int("workers", 0, "worker pool size (0 = NumCPU); results are identical for any value")
		out        = fs.String("out", "", "append results to this JSONL store as points complete")
		profileOut = fs.String("profile", "", "arm self-profiling on every point and write the campaign activity summary (per-point and aggregate idle fractions, phase attribution) as JSON to this file; grid sweeps only")
		wfOut      = fs.String("waterfall", "", "arm latency provenance on every point and write the campaign stage waterfall (per-point and aggregate queue/reserve/arb/stall/sched/link/drain cycle totals) as JSON to this file, with per-config breakdowns on stdout; grid sweeps only")
		resume     = fs.Bool("resume", false, "reload -out first and skip already-computed points (default: truncate it)")
		timeout    = fs.Duration("timeout", 0, "per-point wall-clock budget (0 = none); a point over budget fails alone")
		adaptive   = fs.Bool("adaptive", false, "bisect each config's saturation throughput instead of sweeping the load grid")
		progress   = fs.Bool("progress", false, "stream progress (done/total, ETA) to stderr")

		faults     = fs.Bool("faults", false, "sweep data-flit loss rates on FR6 instead of offered loads, comparing detection-only vs end-to-end retry")
		retryLimit = fs.Int("retrylimit", 8, "retry budget of the -faults retry arm and of -integrity and -reliability rows")
		packets    = fs.Int("packets", 0, "packets offered per -faults, -reliability, -integrity or -chaos row (0 = mode default: 400 for -faults/-integrity, 600 for -reliability/-chaos)")
		rates      = fs.String("rates", "", "comma-separated loss rates for -faults (default 0,0.01,0.02,0.05,0.10,0.20)")

		integrity = fs.Bool("integrity", false, "sweep link bit-error rates on FR6, comparing the end-to-end payload check on vs off")
		bers      = fs.String("bers", "", "comma-separated bit-error rates for -integrity (default 0,1e-4,1e-3,5e-3,1e-2)")
		crcBits   = fs.Int("crc-bits", 0, "modeled hop CRC width in bits for -integrity (0 = default 4; negative disables hop detection)")

		chaos       = fs.Bool("chaos", false, "run one deterministic chaos campaign per intensity on FR6 and report surviving traffic")
		intensities = fs.String("intensities", "", "comma-separated chaos intensities in (0,1] for -chaos (default 0.25,0.5,1)")
		noE2E       = fs.Bool("no-e2e", false, "disable the end-to-end payload check in -chaos rows, so escaped corruption is silently accepted")

		reliability = fs.Bool("reliability", false, "sweep hard-fault scenarios on FR6 (healthy, link-down, link-flap, router-down) and report graceful degradation")
		scenario    = fs.String("scenario", "", `custom hard-fault schedule for the reliability sweep, e.g. "down 5-6 @400; up 5-6 @900" (implies -reliability)`)
	)
	shared := cli.Bind(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := cli.Refusal("sweep", stderr)

	// Everything a sweep can be refused for is refused here, by name, before
	// the store is touched or a job exists: the shared flags and the fault
	// modes' budgets by range, and a grid (or -adaptive) by the grid itself —
	// its shape, loads, config names, wiring and routing.
	switch err := shared.Validate(); {
	case err != nil:
		return fail("%v", err)
	case *packets < 0:
		return fail("-packets must be >= 0 (got %d; 0 means the mode's default)", *packets)
	case *retryLimit < 0 || *retryLimit > noc.MaxLen:
		return fail("-retrylimit must be in [0,%d] (got %d; 0 means the default of 8)", noc.MaxLen, *retryLimit)
	case *crcBits > noc.MaxCrcBits:
		return fail("-crc-bits must be <= %d (got %d; 0 means the default of 4, negative disables hop detection)", noc.MaxCrcBits, *crcBits)
	}
	// A flag the running mode does not read is refused by name, not ignored:
	// the fault modes write no store and run no campaign, and each mode's own
	// flags mean nothing to the others or to a grid.
	mode := "a grid sweep"
	switch {
	case *faults:
		mode = "-faults"
	case *integrity:
		mode = "-integrity"
	case *chaos:
		mode = "-chaos"
	case *reliability || *scenario != "":
		mode = "-reliability"
	}
	resolved := mode != "a grid sweep"
	var stray string
	fs.Visit(func(f *flag.Flag) {
		if stray != "" {
			return
		}
		if modes, ok := modeFlags[f.Name]; ok && !slices.Contains(modes, mode) {
			stray = fmt.Sprintf("-%s applies to %s only, not %s", f.Name, strings.Join(modes, ", "), mode)
		} else if resolved && slices.Contains(gridFlags, f.Name) {
			stray = fmt.Sprintf("-%s applies to grid sweeps only, not %s", f.Name, mode)
		} else if *adaptive && (f.Name == "from" || f.Name == "to") {
			stray = fmt.Sprintf("-%s applies to the load grid only, not -adaptive, whose bisection brackets its own search", f.Name)
		}
	})
	if stray != "" {
		return fail("%s", stray)
	}
	events, err := core.ParseScenario(*scenario)
	if err != nil {
		return fail("-%v", err)
	}
	names := strings.Split(*configs, ",")
	for i := range names {
		names[i] = strings.TrimSpace(names[i])
	}
	var specs []experiment.Spec
	var loads []float64
	if !resolved {
		specs, loads, err = cli.Expand(experiment.Grid{
			Configs: names, Wiring: shared.Wiring, PacketLen: shared.PktLen,
			From: *from, To: *to, Step: *step,
			Sample: shared.Sample, Warmup: shared.Warmup, Seed: shared.Seed, Routing: shared.Routing, Check: shared.Check,
		})
		if err != nil {
			return fail("%v", err)
		}
	}
	if *workers < 0 {
		return fail("-workers must be >= 0 (got %d)", *workers)
	}
	if *resume && *out == "" {
		return fail("-resume needs -out to name the store to resume from")
	}
	if *profileOut != "" && (*adaptive || resolved) {
		return fail("-profile applies to grid sweeps only (not -adaptive or the fault/integrity/chaos modes)")
	}
	if *wfOut != "" && (*adaptive || resolved) {
		return fail("-waterfall applies to grid sweeps only (not -adaptive or the fault/integrity/chaos modes)")
	}
	// Each fault mode is its sweep's rows, resolved on the pool below; a
	// scenario that cannot run on the rows' mesh is refused here.
	ro := experiment.ResolveOptions{Packets: *packets, PacketLen: shared.PktLen, Check: shared.Check, Seed: shared.Seed}
	var rows []experiment.Spec
	var tabulate func([]experiment.Resolved) table
	switch mode {
	case "-faults":
		list, err := parseList(*rates, "loss rate", "a probability in [0,1]", func(v float64) bool { return v >= 0 && v <= 1 })
		if err != nil {
			return fail("%v", err)
		}
		rows, tabulate = experiment.FaultSweepOptions{ResolveOptions: ro, RetryLimit: *retryLimit, Rates: list}.Rows(), faultTable
	case "-integrity":
		list, err := parseList(*bers, "bit-error rate", "a probability in [0,1)", func(v float64) bool { return v >= 0 && v < 1 })
		if err != nil {
			return fail("%v", err)
		}
		rows, tabulate = experiment.IntegritySweepOptions{ResolveOptions: ro, RetryLimit: *retryLimit, CrcBits: *crcBits, BERs: list}.Rows(), integrityTable
	case "-chaos":
		list, err := parseList(*intensities, "chaos intensity", "a value in (0,1]", func(v float64) bool { return v > 0 && v <= 1 })
		if err != nil {
			return fail("%v", err)
		}
		rows, tabulate = experiment.ChaosSweepOptions{ResolveOptions: ro, Intensities: list, ChaosSeed: shared.ChaosSeed, DisableE2E: *noE2E}.Rows(), chaosTable
	case "-reliability":
		o := experiment.ReliabilitySweepOptions{ResolveOptions: ro, RetryLimit: *retryLimit}
		if *scenario != "" {
			o.Scenarios = []experiment.ReliabilityScenario{{Name: "custom", Events: events}}
		}
		rows, tabulate = o.Rows(), reliabilityTable
		for _, s := range rows {
			if err := core.ValidateFaults(topology.NewMesh(s.MeshRadix), s.Faults, s.FR.RetryLimit > 0); err != nil {
				return fail("-scenario: %v", err)
			}
		}
	}
	if *out != "" && !*resume {
		// A fresh campaign: an existing store would otherwise silently
		// serve stale points.
		if err := os.Truncate(*out, 0); err != nil && !os.IsNotExist(err) {
			return fail("truncate %s: %v", *out, err)
		}
	}

	st, stop, err := shared.Start("sweep", stderr)
	if err != nil {
		return fail("%v", err)
	}
	defer stop()

	if resolved {
		points, err := harness.ResolveRows(context.Background(), rows, *workers)
		if err != nil {
			// Every flag value was refused above, so a row that failed did
			// so running: exit 1, the row named, no row of zeros printed.
			fmt.Fprintf(stderr, "sweep: %v\n", err)
			return 1
		}
		return printTable(stdout, stderr, tabulate(points), *csv)
	}

	ho := harness.Options{Workers: *workers, Timeout: *timeout}
	if *progress {
		ho.Progress = func(p harness.Progress) { fmt.Fprintf(stderr, "sweep: %s\n", p) }
	}
	ho = instrument(ho, st, *profileOut != "", *wfOut != "")
	if *out != "" {
		store, err := harness.OpenStore(*out)
		if err != nil {
			return fail("%v", err)
		}
		defer store.Close()
		ho.Store = store
	}

	if *adaptive {
		return runAdaptive(stdout, stderr, names, specs, *step, shared.Wiring, shared.PktLen, ho, *csv)
	}

	var jobs []harness.Job
	for _, s := range specs {
		jobs = harness.AppendJobs(jobs, s, loads)
	}
	results, err := harness.RunJobs(context.Background(), jobs, ho)
	if err != nil {
		return fail("%v", err)
	}
	series := make(map[string][]harness.JobResult, len(names))
	for i, name := range names {
		series[name] = results[i*len(loads) : (i+1)*len(loads)]
	}

	exit := summarize(stderr, results)

	if *profileOut != "" {
		if err := writeCampaignProfile(*profileOut, results); err != nil {
			return fail("%v", err)
		}
		fmt.Fprintf(stderr, "sweep: campaign profile written to %s\n", *profileOut)
		warnUnobserved(stderr, "-profile", results, func(o experiment.Observed) bool { return o.Activity != nil })
	}

	if *wfOut != "" {
		if err := writeCampaignWaterfall(*wfOut, results); err != nil {
			return fail("%v", err)
		}
		fmt.Fprintf(stderr, "sweep: campaign waterfall written to %s\n", *wfOut)
		warnUnobserved(stderr, "-waterfall", results, func(o experiment.Observed) bool { return o.Waterfall != nil })
		if !*csv {
			printWaterfallBreakdown(stdout, names, series)
		}
	}

	// One row per load and one column per config, as CSV (an empty cell where
	// a point failed or saturated) or as aligned text (a word there).
	first, col, failed, saturated := "%-8s", " %14s", "failed", "saturated"
	if *csv {
		first, col, failed, saturated = "%s", ",%s", "", ""
		fmt.Fprint(stdout, "load")
	} else {
		fmt.Fprintf(stdout, "# latency (cycles) vs offered traffic (%% capacity); %s wiring, %d-flit packets\n", shared.Wiring, shared.PktLen)
		fmt.Fprintf(stdout, first, "load%")
	}
	for _, name := range names {
		fmt.Fprintf(stdout, col, name)
	}
	fmt.Fprintln(stdout)
	for i, l := range loads {
		fmt.Fprintf(stdout, first, fmt.Sprintf("%.1f", l*100))
		for _, name := range names {
			cell := fmt.Sprintf("%.2f", series[name][i].Result.AvgLatency)
			switch jr := series[name][i]; {
			case jr.Err != "":
				cell = failed
			case jr.Result.Saturated:
				cell = saturated
			}
			fmt.Fprintf(stdout, col, cell)
		}
		fmt.Fprintln(stdout)
	}
	return exit
}

// modeFlags names, for each flag only the fault modes read, the modes that
// read it; -scenario runs -reliability.
var modeFlags = map[string][]string{
	"rates":       {"-faults"},
	"bers":        {"-integrity"},
	"crc-bits":    {"-integrity"},
	"intensities": {"-chaos"},
	"no-e2e":      {"-chaos"},
	"chaos-seed":  {"-chaos"},
	"packets":     {"-faults", "-integrity", "-chaos", "-reliability"},
	"retrylimit":  {"-faults", "-integrity", "-reliability"},
}

// gridFlags are the flags of the store and campaign a grid sweep (or its
// -adaptive bisection) runs, which the fault modes have neither of, and of the
// grid itself: every fault mode runs FR6 under fast control with its own
// routing, to full resolution rather than a sample.
var gridFlags = []string{"out", "resume", "timeout", "progress", "adaptive",
	"configs", "from", "to", "step", "wiring", "sample", "warmup", "routing"}

// instrument returns ho with what a grid sweep's jobs report beyond their
// results: a status server, fed the campaign's progress, each job's start and
// finish, and each simulated job's counters; and the collectors -profile and
// -waterfall arm on every simulated job. Serving and collecting are
// observation-only: results are bit-identical with or without them.
func instrument(ho harness.Options, st *status.Server, prof, wf bool) harness.Options {
	if st != nil {
		ho = st.Feed(ho)
		if cb := ho.Progress; cb != nil {
			ho.Progress = func(p harness.Progress) {
				st.OnProgress(p)
				cb(p)
			}
		} else {
			ho.Progress = st.OnProgress
		}
	}
	ho.Observe = metrics.Options{Metrics: st != nil, Profile: prof, Waterfall: wf}
	return ho
}

// observed is the point's sidecar: empty for a failed point and for a cached
// one whose stored row was written by a run that armed no observer.
func observed(jr harness.JobResult) experiment.Observed {
	if jr.Err != "" || jr.Result.Observed == nil {
		return experiment.Observed{}
	}
	return *jr.Result.Observed
}

// warnUnobserved names, in one stderr line, the cached points an armed observer
// has nothing for: -resume served their stored rows, and the run that stored
// them had not armed it. They are left out of the artefact, as a failed point
// is; without the line an all-cached campaign wrote an empty one in silence.
func warnUnobserved(stderr io.Writer, flag string, results []harness.JobResult, has func(experiment.Observed) bool) {
	n := 0
	for _, jr := range results {
		if jr.Cached && jr.Err == "" && !has(observed(jr)) {
			n++
		}
	}
	if n > 0 {
		fmt.Fprintf(stderr, "sweep: %s: %d of %d points were served from the store, which holds them as a run without %s stored them; they are not in the artefact — drop -resume (or those rows) to observe them\n",
			flag, n, len(results), flag)
	}
}

// profilePoint is one point's row in the -profile campaign summary.
type profilePoint struct {
	Spec string  `json:"spec"`
	Load float64 `json:"load"`
	profile.Activity
}

// campaignProfile is the -profile output: the aggregate activity accounting
// over every point that has one, plus one row per such point in job order.
// Every value comes from the deterministic Observed.Activity of a result, so
// the file is byte-identical for any worker count.
type campaignProfile struct {
	Points    int `json:"points"`
	Simulated int `json:"simulated"`
	profile.Activity
	PerPoint []profilePoint `json:"perPoint"`
}

func writeCampaignProfile(path string, results []harness.JobResult) error {
	cp := campaignProfile{Points: len(results)}
	for _, jr := range results {
		a := observed(jr).Activity
		if a == nil || a.Ticks == 0 {
			// Not profiled, or profiled on a fabric that accounts no
			// ticks (SAF, VCT, CS).
			continue
		}
		cp.Simulated++
		cp.Add(*a)
		cp.PerPoint = append(cp.PerPoint, profilePoint{jr.Job.Spec.Name, jr.Job.Load, *a})
	}
	return writeJSON(path, cp)
}

// waterfallPoint is one point's row in the -waterfall campaign summary.
type waterfallPoint struct {
	Spec string  `json:"spec"`
	Load float64 `json:"load"`
	waterfall.Totals
}

// campaignWaterfall is the -waterfall output: the aggregate stage totals over
// every point that decomposed a packet, plus one row per such point in job
// order. Every value comes from the deterministic Observed.Waterfall of a
// result, so the file is byte-identical for any worker count.
type campaignWaterfall struct {
	Points    int `json:"points"`
	Simulated int `json:"simulated"`
	waterfall.Totals
	PerPoint []waterfallPoint `json:"perPoint"`
}

func writeCampaignWaterfall(path string, results []harness.JobResult) error {
	cw := campaignWaterfall{Points: len(results)}
	for _, jr := range results {
		t := observed(jr).Waterfall
		if t == nil || t.Packets == 0 {
			// No ledger, or one that saw nothing delivered (a point that
			// saturated outright).
			continue
		}
		cw.Simulated++
		cw.Add(*t)
		cw.PerPoint = append(cw.PerPoint, waterfallPoint{jr.Job.Spec.Name, jr.Job.Load, *t})
	}
	return writeJSON(path, cw)
}

// writeJSON writes v to path as indented JSON.
func writeJSON(path string, v any) error {
	return cli.WriteFile(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(v)
	})
}

// printWaterfallBreakdown renders one "where the cycles go" comment line per
// configuration: mean cycles per stage over every decomposed point of that
// config's series.
func printWaterfallBreakdown(stdout io.Writer, names []string, series map[string][]harness.JobResult) {
	fmt.Fprintln(stdout, "# latency waterfall: mean cycles per stage (queue + reserve + arb + stall + sched + link + drain)")
	for _, name := range names {
		var s waterfall.Totals
		for _, jr := range series[name] {
			if t := observed(jr).Waterfall; t != nil {
				s.Add(*t)
			}
		}
		if s.Packets == 0 {
			fmt.Fprintf(stdout, "# waterfall %-10s no decomposed packets\n", name)
			continue
		}
		n := float64(s.Packets)
		mean := func(cycles int64) float64 { return float64(cycles) / n }
		fmt.Fprintf(stdout, "# waterfall %-10s %.2f + %.2f + %.2f + %.2f + %.2f + %.2f + %.2f = %.2f cycles over %d packets\n",
			name, mean(s.Queue), mean(s.Reserve), mean(s.Arb), mean(s.Stall), mean(s.Sched), mean(s.Link), mean(s.Drain),
			mean(s.Queue+s.Reserve+s.Arb+s.Stall+s.Sched+s.Link+s.Drain), s.Packets)
	}
}

// summarize prints the campaign accounting line to stderr — the signal a
// resumed sweep ran zero new simulations — and reports failures.
func summarize(stderr io.Writer, results []harness.JobResult) int {
	simulated, cached, failed := 0, 0, 0
	for _, jr := range results {
		switch {
		case jr.Err != "":
			failed++
		case jr.Cached:
			cached++
		default:
			simulated++
		}
	}
	fmt.Fprintf(stderr, "sweep: %d points: %d simulated, %d cached, %d failed\n",
		len(results), simulated, cached, failed)
	if failed > 0 {
		for _, jr := range results {
			if jr.Err != "" {
				first, _, _ := strings.Cut(jr.Err, "\n")
				fmt.Fprintf(stderr, "sweep: point %s load=%.1f%% failed: %s\n",
					jr.Job.Spec.Name, jr.Job.Load*100, first)
			}
		}
		return 1
	}
	return 0
}

// runAdaptive is the -adaptive mode: one bisection search per configuration
// instead of the fixed load grid.
func runAdaptive(stdout, stderr io.Writer, names []string, specs []experiment.Spec, resolution float64, wiring string, pktLen int, ho harness.Options, csv bool) int {
	pts, err := harness.SaturationSearch(context.Background(), specs, resolution, ho)
	if err != nil {
		fmt.Fprintf(stderr, "sweep: %v\n", err)
		return 2
	}
	exit := 0
	simulated := 0
	for _, p := range pts {
		simulated += p.Simulated
		if p.Err != "" {
			first, _, _ := strings.Cut(p.Err, "\n")
			fmt.Fprintf(stderr, "sweep: %s search failed: %s\n", p.Spec, first)
			exit = 1
		}
	}
	fmt.Fprintf(stderr, "sweep: %d configs: %d runs simulated\n", len(pts), simulated)

	// One row per config; the CSV and text forms differ only in their formats.
	head := fmt.Sprintf("# saturation throughput by bisection (resolution %.1f%% capacity); %s wiring, %d-flit packets\n%-14s %10s %10s %12s %6s %10s\n",
		resolution*100, wiring, pktLen, "config", "sat%cap", "eff%cap", "base(cyc)", "evals", "simulated")
	failed, row := "%-14s     failed\n", "%-14s %10.1f %10.1f %12.2f %6d %10d\n"
	if csv {
		head, failed, row = "config,saturation,effective,base_latency,evals,simulated\n", "%s,,,,,\n", "%s,%.1f,%.1f,%.2f,%d,%d\n"
	}
	fmt.Fprint(stdout, head)
	for i, p := range pts {
		if p.Err != "" {
			fmt.Fprintf(stdout, failed, names[i])
			continue
		}
		fmt.Fprintf(stdout, row, names[i], p.Saturation*100, p.Effective*100, p.BaseLatency, p.Evals, p.Simulated)
	}
	return exit
}

// parseList parses one of the fault modes' comma-separated number lists; what
// names the kind of value and want its accepted range for the error message.
// An empty list is nil, which selects the mode's default.
func parseList(list, what, want string, ok func(float64) bool) ([]float64, error) {
	if list == "" {
		return nil, nil
	}
	var out []float64
	for _, s := range strings.Split(list, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil || !ok(v) {
			return nil, fmt.Errorf("bad %s %q (want %s)", what, s, want)
		}
		out = append(out, v)
	}
	return out, nil
}

// table is one fault mode's output: the text title, the CSV header, and per
// point its text and CSV rows plus the point itself, whose Spec.Name a wedged
// row is reported under.
type table struct {
	title, header string
	rows          []tableRow
}

type tableRow struct {
	text, csv string
	p         experiment.Resolved
}

func (t *table) add(p experiment.Resolved, text, csv string) {
	t.rows = append(t.rows, tableRow{text, csv, p})
}

// printTable prints a fault mode's table as text or CSV. A row whose
// no-progress watchdog fired is named on stderr, marked WEDGED in the text
// form, and makes the exit code 1.
func printTable(stdout, stderr io.Writer, t table, csv bool) int {
	exit := 0
	for _, r := range t.rows {
		if r.p.Wedged {
			fmt.Fprintf(stderr, "sweep: row %q wedged (no-progress watchdog fired)\n", r.p.Spec.Name)
			exit = 1
		}
	}
	if csv {
		fmt.Fprintln(stdout, t.header)
		for _, r := range t.rows {
			fmt.Fprintln(stdout, r.csv)
		}
		return exit
	}
	fmt.Fprintln(stdout, t.title)
	for _, r := range t.rows {
		wedged := ""
		if r.p.Wedged {
			wedged = "  WEDGED"
		}
		fmt.Fprintf(stdout, "%s%s\n", r.text, wedged)
	}
	return exit
}

// faultTable is the -faults mode: delivery probability versus loss rate,
// detection-only versus end-to-end retry.
func faultTable(points []experiment.Resolved) table {
	t := table{
		title: fmt.Sprintf("# end-to-end delivery vs data-flit loss; FR6, %d-flit packets, %d packets per row",
			points[0].Spec.PacketLen, points[0].Offered),
		header: "loss,retrylimit,offered,delivered,abandoned,retried,avglatency",
	}
	for _, p := range points {
		fr := p.Spec.FR
		policy := "detect-only"
		if fr.RetryLimit > 0 {
			policy = fmt.Sprintf("retry<=%d", fr.RetryLimit)
		}
		t.add(p,
			fmt.Sprintf("loss=%5.1f%%  %-11s delivered=%5.1f%%  retried=%4d  abandoned=%3d  latency=%8.2f",
				fr.DataFaultRate*100, policy, p.DeliveredFraction()*100, p.Retried, p.Abandoned, p.AvgLatency),
			fmt.Sprintf("%.3f,%d,%d,%d,%d,%d,%.2f",
				fr.DataFaultRate, fr.RetryLimit, p.Offered, p.Delivered, p.Abandoned, p.Retried, p.AvgLatency))
	}
	return t
}

// reliabilityTable is the -reliability / -scenario mode: graceful degradation
// under scheduled hard faults, one row per scenario (the row's name).
func reliabilityTable(points []experiment.Resolved) table {
	t := table{
		title: fmt.Sprintf("# graceful degradation under hard faults; FR6, table routing, retry<=%d, %d packets per row",
			points[0].Spec.FR.RetryLimit, points[0].Offered),
		header: "scenario,retrylimit,offered,delivered,unreachable,abandoned,dropped,retried,avglatency,prefault,outage,postrecovery,recovery",
	}
	for _, p := range points {
		rec := "-"
		if p.LatencyRecovery > 0 {
			rec = fmt.Sprintf("%.2f", p.LatencyRecovery)
		}
		t.add(p,
			fmt.Sprintf("%-12s delivered=%5.1f%%  unreachable=%3d  dropped=%4d  retried=%4d  latency=%8.2f  recovery=%s",
				p.Spec.Name, p.DeliveredFraction()*100, p.Unreachable, p.DroppedFlits, p.Retried, p.AvgLatency, rec),
			fmt.Sprintf("%s,%d,%d,%d,%d,%d,%d,%d,%.2f,%.2f,%.2f,%.2f,%.3f",
				p.Spec.Name, p.Spec.FR.RetryLimit, p.Offered, p.Delivered, p.Unreachable, p.Abandoned,
				p.DroppedFlits, p.Retried, p.AvgLatency,
				p.PreFaultLatency, p.OutageLatency, p.PostRecoveryLatency, p.LatencyRecovery))
	}
	return t
}

// integrityTable is the -integrity mode: silent-corruption tolerance versus
// link bit-error rate, end-to-end check on versus off.
func integrityTable(points []experiment.Resolved) table {
	t := table{
		title: fmt.Sprintf("# silent-corruption tolerance vs link bit-error rate; FR6, %d-bit hop CRC, %d packets per row",
			points[0].Spec.FR.CrcBits, points[0].Offered),
		header: "ber,crcbits,e2e,offered,delivered,abandoned,corrupted,crcdetected,escapes,phantom,reclaimed,retried,avglatency",
	}
	for _, p := range points {
		fr := p.Spec.FR
		e2e := "off"
		if fr.E2ECheck {
			e2e = "on"
		}
		t.add(p,
			fmt.Sprintf("ber=%-7.0e e2e=%-3s delivered=%6.2f%%  corrupted=%5d  crc=%5d  escapes=%4d  retried=%4d",
				fr.BER, e2e, p.DeliveredFraction()*100, p.CorruptedFlits, p.CrcDetected, p.CorruptEscapes, p.Retried),
			fmt.Sprintf("%g,%d,%v,%d,%d,%d,%d,%d,%d,%d,%d,%d,%.2f",
				fr.BER, fr.CrcBits, fr.E2ECheck, p.Offered, p.Delivered, p.Abandoned,
				p.CorruptedFlits, p.CrcDetected, p.CorruptEscapes,
				p.PhantomReservations, p.ReclaimedSlots, p.Retried, p.AvgLatency))
	}
	return t
}

// chaosTable is the -chaos mode: one deterministic chaos campaign per
// intensity.
func chaosTable(points []experiment.Resolved) table {
	t := table{
		title: fmt.Sprintf("# surviving traffic under deterministic chaos campaigns; FR6, seed %d, %d packets per row",
			points[0].Spec.ChaosSeed, points[0].Offered),
		header: "intensity,seed,events,offered,delivered,abandoned,unreachable,dropped,corrupted,crcdetected,escapes,phantom,reclaimed,retried,avglatency",
	}
	for _, p := range points {
		s := p.Spec
		t.add(p,
			fmt.Sprintf("intensity=%.2f events=%2d delivered=%6.2f%%  unreachable=%3d  dropped=%4d  corrupted=%5d  escapes=%3d  retried=%4d",
				s.ChaosIntensity, len(p.Events), p.DeliveredFraction()*100, p.Unreachable,
				p.DroppedFlits, p.CorruptedFlits, p.CorruptEscapes, p.Retried),
			fmt.Sprintf("%g,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%.2f",
				s.ChaosIntensity, s.ChaosSeed, len(p.Events), p.Offered, p.Delivered, p.Abandoned,
				p.Unreachable, p.DroppedFlits, p.CorruptedFlits, p.CrcDetected,
				p.CorruptEscapes, p.PhantomReservations, p.ReclaimedSlots,
				p.Retried, p.AvgLatency))
	}
	return t
}
