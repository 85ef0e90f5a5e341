// Command frbench is the repository's benchmark: four workloads, each measured
// in a child process of its own, end to end through the root frfc package and
// the frserve binary, and layer by layer from outside the internal packages.
// bench/run.sh builds it and runs it from the repository root; README.md in
// this directory says what every number means.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"
)

const (
	benchFilePath = "BENCHMARK.json"
	outDir        = "bench/out"
	// setupChildren is how many extra children are started only to time
	// set-up, so that setup_s is a median and not one process start.
	setupChildren = 6
	// childTimeout ends a child that hangs, inside the three minutes one
	// benchmark run may take.
	childTimeout = 150 * time.Second
)

func main() {
	var (
		workloadName = flag.String("workload", "", "run only this workload and print one JSON result as the last line")
		seed         = flag.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds      = flag.Float64("seconds", 0, "seconds each run measures (default: run_seconds of BENCHMARK.json)")
		traceFlag    = flag.String("trace", "", "0: end-to-end metrics, tracing off; 1: per-layer metrics and a trace file; empty: both")
		sets         = flag.Int("sets", 1, "run this many full sets and compare them with the bounds of BENCHMARK.json")
		quick        = flag.Bool("quick", false, "smoke sizes: one repetition, tiny samples, one campaign round, no bounds")
		child        = flag.Bool("child", false, "internal: be the measuring child of -workload")
		setupOnly    = flag.Bool("setup-only", false, "internal: measure set-up and exit")
		t0           = flag.Int64("t0", 0, "internal: the driver's clock when it started this child, Unix ns")
		regen        = flag.Bool("regen-golden", false, "rerun the single-run workloads at seed 1 and rewrite bench/golden.json")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal("unexpected arguments: %v", flag.Args())
	}
	if *regen {
		if err := regenGolden(); err != nil {
			fatal("regen-golden: %v", err)
		}
		return
	}
	bf, err := loadBenchFile(benchFilePath)
	if err != nil {
		fatal("%v (run bench/run.sh from the repository root)", err)
	}
	if *seconds <= 0 {
		*seconds = float64(bf.RunSeconds)
	}

	if *child {
		w, ok := workloadByName(*workloadName)
		if !ok {
			fatal("unknown workload %q", *workloadName)
		}
		cfg := childConfig{
			workload: w, seed: *seed, seconds: *seconds, trace: *traceFlag == "1",
			quick: *quick, setupOnly: *setupOnly, t0: *t0,
		}
		run := childSingle
		if w.campaign {
			run = childCampaign
		}
		res := run(cfg)
		if cfg.trace && !cfg.setupOnly {
			res.settle(bf.PerLayer)
		}
		if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
			fatal("encode result: %v", err)
		}
		return
	}

	d := driver{bf: bf, seed: *seed, seconds: *seconds, quick: *quick}
	if *workloadName != "" {
		w, ok := workloadByName(*workloadName)
		if !ok || (*traceFlag != "0" && *traceFlag != "1") {
			fatal("-workload needs a workload of BENCHMARK.json and -trace 0 or 1")
		}
		os.Exit(d.single(w, *traceFlag == "1"))
	}
	os.Exit(d.all(*sets, *traceFlag))
}

func fatal(format string, a ...any) {
	fmt.Fprintf(os.Stderr, "frbench: "+format+"\n", a...)
	os.Exit(2)
}

type driver struct {
	bf      benchFile
	seed    uint64
	seconds float64
	quick   bool
}

// spawn starts one child of this binary and decodes its report.
func (d driver) spawn(w workload, trace, setupOnly bool) (*runResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	args := []string{
		"-child", "-workload", w.name,
		"-seed", strconv.FormatUint(d.seed, 10),
		"-seconds", strconv.FormatFloat(d.seconds, 'g', -1, 64),
		"-trace", map[bool]string{false: "0", true: "1"}[trace],
		"-t0", strconv.FormatInt(time.Now().UnixNano(), 10),
	}
	if d.quick {
		args = append(args, "-quick")
	}
	if setupOnly {
		args = append(args, "-setup-only")
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stderr = os.Stderr
	// The child gets a process group of its own, so that a child that has
	// to be ended takes the daemon it started with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	cmd.Cancel = func() error { return syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL) }
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("child %s: %w", w.name, err)
	}
	var res runResult
	if err := json.Unmarshal(out, &res); err != nil {
		return nil, fmt.Errorf("child %s: report: %w", w.name, err)
	}
	return &res, nil
}

// measure runs one workload in one mode. With tracing off it first starts
// setupChildren children that only set up, and reports the median set-up time
// of all of them and the measuring child.
func (d driver) measure(w workload, trace bool) *runResult {
	var setups []float64
	if !trace && !d.quick {
		for i := 0; i < setupChildren; i++ {
			r, err := d.spawn(w, false, true)
			if err == nil && r.Failed > 0 {
				err = fmt.Errorf("%v", r.Failures)
			}
			if err != nil {
				return failedRun(w, d.seed, trace, "set-up child: "+err.Error())
			}
			setups = append(setups, r.SetupS)
		}
	}
	res, err := d.spawn(w, trace, false)
	if err != nil {
		return failedRun(w, d.seed, trace, err.Error())
	}
	if !trace {
		setups = append(setups, res.SetupS)
		res.Metrics["setup_s"] = median(setups)
		res.Samples["setup_s"] = setups
	}
	return res
}

func failedRun(w workload, seed uint64, trace bool, why string) *runResult {
	r := &runResult{Workload: w.name, Seed: seed, Trace: trace, Metrics: map[string]float64{}}
	r.op(why)
	return r
}

// defs returns the metrics a run in the given mode must report.
func (d driver) defs(trace bool) []metricDef {
	if trace {
		return d.bf.PerLayer
	}
	return d.bf.EndToEnd
}

// print lists every metric of the run by name, with its unit.
func (d driver) print(res *runResult) {
	word := map[string]string{}
	for _, m := range res.Missing {
		word[m] = "missing"
	}
	for _, m := range res.NotApplicable {
		word[m] = "n/a"
	}
	for _, def := range d.defs(res.Trace) {
		v, ok := res.Metrics[def.Name]
		if !ok && word[def.Name] == "" {
			word[def.Name] = "missing"
		}
		if word[def.Name] != "" {
			fmt.Printf("%-52s %14s %s\n", def.Name+"@"+res.Workload, word[def.Name], def.Unit)
		} else {
			fmt.Printf("%-52s %14.6g %s\n", def.Name+"@"+res.Workload, v, def.Unit)
		}
	}
	for _, f := range res.Failures {
		fmt.Printf("FAILED %s: %s\n", res.Workload, f)
	}
	fmt.Printf("%-52s %14d of %d\n", "failed_ops@"+res.Workload, res.Failed, res.Attempted)
}

// single is the benchmark driver's entry: one workload, one mode, and as the
// last line of standard output one JSON object with every metric of the mode.
func (d driver) single(w workload, trace bool) int {
	res := d.measure(w, trace)
	d.print(res)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: res.Failed == 0, Attempted: max(res.Attempted, 1), Failed: res.Failed, Metrics: map[string]value{}}
	for _, def := range d.defs(trace) {
		v, ok := res.Metrics[def.Name]
		// An end-to-end metric that was not measured makes the run wrong; a
		// per-layer metric that does not apply to this workload reads 0.
		if !trace && (!ok || v == 0 || math.IsNaN(v) || math.IsInf(v, 0)) && res.Failed == 0 {
			out.Correct = false
			fmt.Printf("FAILED %s: end-to-end metric %s not measured\n", w.name, def.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out.Metrics[def.Name] = value{Value: v, Unit: def.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		fatal("encode result: %v", err)
	}
	fmt.Println(string(b))
	if !out.Correct {
		return 1
	}
	return 0
}

// all runs every workload, in both modes unless one was asked for, sets times
// over, writes result.json and, for more than one set, holds the sets against
// the bounds.
func (d driver) all(sets int, traceFlag string) int {
	type setResult struct {
		Runs []*runResult `json:"runs"`
	}
	var all []setResult
	failed := 0
	for s := 0; s < sets; s++ {
		var set setResult
		for _, w := range workloads {
			for _, trace := range []bool{false, true} {
				if (traceFlag == "0" && trace) || (traceFlag == "1" && !trace) {
					continue
				}
				fmt.Printf("# set %d of %d, %s, %s\n", s+1, sets, w.name, map[bool]string{false: "end to end (tracing off)", true: "per layer (traced)"}[trace])
				res := d.measure(w, trace)
				d.print(res)
				failed += res.Failed
				set.Runs = append(set.Runs, res)
			}
		}
		all = append(all, set)
	}

	type stability struct {
		Metric    string    `json:"metric"`
		Workload  string    `json:"workload"`
		Values    []float64 `json:"values"`
		Median    float64   `json:"median"`
		SpreadPct float64   `json:"max_set_to_set_pct"`
		BoundPct  float64   `json:"bound_pct"`
		Pass      bool      `json:"pass"`
	}
	var stab []stability
	unstable := 0
	if sets > 1 && traceFlag != "1" {
		fmt.Printf("# %d sets against the bounds of %s\n", sets, benchFilePath)
		for _, def := range d.bf.EndToEnd {
			for _, w := range workloads {
				var vals []float64
				for _, set := range all {
					for _, r := range set.Runs {
						if r.Workload == w.name && !r.Trace {
							vals = append(vals, r.Metrics[def.Name])
						}
					}
				}
				st := stability{
					Metric: def.Name, Workload: w.name, Values: vals, Median: median(vals),
					SpreadPct: spreadPct(vals), BoundPct: def.Bound * 100,
				}
				st.Pass = st.SpreadPct <= st.BoundPct
				verdict := "pass"
				if !st.Pass {
					verdict = "FAIL"
					unstable++
				}
				fmt.Printf("%-40s median %12.6g %-6s spread %6.2f%% bound %5.1f%% %s\n",
					def.Name+"@"+w.name, st.Median, def.Unit, st.SpreadPct, st.BoundPct, verdict)
				stab = append(stab, st)
			}
		}
	}

	report := map[string]any{
		"host": readHost(), "seed": d.seed, "seconds": d.seconds, "quick": d.quick,
		"sets": all, "stability": stab,
	}
	b, err := json.MarshalIndent(report, "", " ")
	if err == nil {
		err = os.WriteFile(filepath.Join(outDir, "result.json"), append(b, '\n'), 0o644)
	}
	if err != nil {
		fatal("write result.json: %v", err)
	}
	fmt.Printf("# wrote %s; failed operations: %d; metrics outside their bound: %d\n", filepath.Join(outDir, "result.json"), failed, unstable)
	if failed > 0 || unstable > 0 {
		return 1
	}
	return 0
}
