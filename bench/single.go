package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"frfc"
)

// simStats are the simulated statistics the correctness oracle compares.
// They are host-independent and exact, and they are semantic fields rather
// than stored bytes, so splitting or extending frfc.Result later does not
// invalidate golden.json.
type simStats struct {
	Cycles           int64
	SampleSize       int
	SampledDelivered int
	AvgLatency       float64
	P50              int64
	P99              int64
	AcceptedLoad     float64
	Saturated        bool
}

func statsOf(r frfc.Result) simStats {
	return simStats{
		Cycles: r.Cycles, SampleSize: r.SampleSize, SampledDelivered: r.SampledDelivered,
		AvgLatency: r.AvgLatency, P50: r.P50, P99: r.P99,
		AcceptedLoad: r.AcceptedLoad, Saturated: r.Saturated,
	}
}

// sameFloat allows the last few bits to differ: an architecture that fuses
// multiply-adds rounds a running mean differently.
func sameFloat(a, b float64) bool {
	return a == b || math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

// diff names the first field in which s differs from want, or returns "".
func (s simStats) diff(want simStats) string {
	switch {
	case s.Cycles != want.Cycles:
		return fmt.Sprintf("Cycles %d, want %d", s.Cycles, want.Cycles)
	case s.SampleSize != want.SampleSize:
		return fmt.Sprintf("SampleSize %d, want %d", s.SampleSize, want.SampleSize)
	case s.SampledDelivered != want.SampledDelivered:
		return fmt.Sprintf("SampledDelivered %d, want %d", s.SampledDelivered, want.SampledDelivered)
	case !sameFloat(s.AvgLatency, want.AvgLatency):
		return fmt.Sprintf("AvgLatency %v, want %v", s.AvgLatency, want.AvgLatency)
	case s.P50 != want.P50:
		return fmt.Sprintf("P50 %d, want %d", s.P50, want.P50)
	case s.P99 != want.P99:
		return fmt.Sprintf("P99 %d, want %d", s.P99, want.P99)
	case !sameFloat(s.AcceptedLoad, want.AcceptedLoad):
		return fmt.Sprintf("AcceptedLoad %v, want %v", s.AcceptedLoad, want.AcceptedLoad)
	case s.Saturated != want.Saturated:
		return fmt.Sprintf("Saturated %v, want %v", s.Saturated, want.Saturated)
	}
	return ""
}

// unusable reports why a result cannot count as a completed operation
// whatever its statistics are.
func unusable(r frfc.Result) string {
	switch {
	case r.Saturated:
		return "run saturated"
	case r.SampleSize == 0 || r.SampledDelivered != r.SampleSize:
		return fmt.Sprintf("sample undelivered: %d of %d", r.SampledDelivered, r.SampleSize)
	}
	return ""
}

const goldenPath = "bench/golden.json"

func loadGolden() (map[string]simStats, error) {
	b, err := os.ReadFile(goldenPath)
	if err != nil {
		return nil, err
	}
	g := map[string]simStats{}
	if err := json.Unmarshal(b, &g); err != nil {
		return nil, fmt.Errorf("%s: %w", goldenPath, err)
	}
	return g, nil
}

// regenGolden runs every single-run workload once at seed 1 and full size and
// rewrites golden.json. It is the only writer of that file.
func regenGolden() error {
	g := map[string]simStats{}
	for _, w := range workloads {
		if w.campaign {
			continue
		}
		r := frfc.Run(w.spec(false).WithSeed(1), w.load)
		if why := unusable(r); why != "" {
			return fmt.Errorf("%s: %s", w.name, why)
		}
		g[w.name] = statsOf(r)
		fmt.Fprintf(os.Stderr, "golden %s: %+v\n", w.name, g[w.name])
	}
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(goldenPath, append(b, '\n'), 0o644)
}

// repSample is what one timed frfc.Run yields.
type repSample struct {
	res     frfc.Result
	wall    float64 // seconds
	mallocs uint64
	bytes   uint64
	numGC   uint32
	pauseNs uint64
	heapSys uint64
	peakRSS float64 // MiB, the high-water mark of this run alone
}

// timedRun is the timed section of every single-run repetition: exactly one
// frfc.Run between two clock reads, with the allocator's counters read
// outside them.
func timedRun(spec frfc.Spec, load float64) repSample {
	var m0, m1 runtime.MemStats
	resetPeakRSS()
	runtime.ReadMemStats(&m0)
	start := time.Now()
	r := frfc.Run(spec, load)
	wall := time.Since(start).Seconds()
	runtime.ReadMemStats(&m1)
	return repSample{
		res: r, wall: wall,
		mallocs: m1.Mallocs - m0.Mallocs, bytes: m1.TotalAlloc - m0.TotalAlloc,
		numGC: m1.NumGC - m0.NumGC, pauseNs: m1.PauseTotalNs - m0.PauseTotalNs,
		heapSys: m1.HeapSys, peakRSS: peakRSSMiB(),
	}
}

// Repetition counts. A run measures for the seconds it is given and never
// fewer than minReps repetitions; the last share of the time goes to the
// warm small jobs, timed in groups so that each group has its own pair of
// reference passes.
const (
	minReps        = 3
	warmShare      = 0.30
	minSmallGroups = 3
	minGroupJobs   = 2
	smallGroupTime = 400 * time.Millisecond
)

// childSingle is the measuring child of a single-run workload.
func childSingle(cfg childConfig) *runResult {
	res := newResult(cfg)
	w := cfg.workload
	spec := w.spec(cfg.quick).WithSeed(cfg.seed)
	small := spec.WithSampling(smallSample, smallWarmup)

	var want *simStats
	if cfg.seed == 1 && !cfg.quick {
		golden, err := loadGolden()
		if err != nil {
			res.op("golden: " + err.Error())
			return res
		}
		g, ok := golden[w.name]
		if !ok {
			res.op("golden: no entry for " + w.name)
			return res
		}
		want = &g
	}

	// One short untimed run, so that whatever the program sets up lazily on
	// its first run is set-up time and not part of the first repetition.
	frfc.Run(small, w.load)
	setupWall := time.Since(time.Unix(0, cfg.t0)).Seconds()
	refs := []float64{refPass()}
	res.SetupS = setupWall / (refs[0] / refNominal)
	if cfg.setupOnly {
		return res
	}
	if cfg.trace {
		traceSingle(cfg, res, spec)
		return res
	}

	start := time.Now()
	repBudget := cfg.seconds * (1 - warmShare)
	var raw, perRef, allocs, allocKB, rss []float64
	for rep := 0; ; rep++ {
		s := timedRun(spec, w.load)
		refs = append(refs, refPass())
		cycles := float64(s.res.Cycles)
		h := hostFactor(refs[len(refs)-2], refs[len(refs)-1])
		raw = append(raw, cycles/s.wall)
		perRef = append(perRef, cycles/(s.wall/h))
		allocs = append(allocs, float64(s.mallocs)/cycles*1000)
		allocKB = append(allocKB, float64(s.bytes)/1024/cycles*1000)
		rss = append(rss, s.peakRSS)

		got := statsOf(s.res)
		why := unusable(s.res)
		if why == "" && want != nil {
			why = got.diff(*want)
		}
		if want == nil {
			// No golden entry for this seed: every later repetition must
			// agree with the first.
			want = &got
		}
		if why != "" {
			why = fmt.Sprintf("%s rep %d: %s", w.name, rep, why)
		}
		res.op(why)

		done := rep + 1
		if cfg.quick || (done >= minReps && time.Since(start).Seconds()+s.wall/2 > repBudget) {
			break
		}
	}

	// The warm operation: small jobs of this configuration in the now warm
	// process, each at its own seed.
	var smallMs, groupMs []float64
	blockStart := time.Now()
	for g := 0; ; g++ {
		var ms []float64
		groupStart := time.Now()
		for len(ms) < minGroupJobs || (!cfg.quick && time.Since(groupStart) < smallGroupTime) {
			s := timedRun(small.WithSeed(cfg.seed*1000+uint64(len(smallMs))+1), w.load)
			ms = append(ms, s.wall*1000)
			smallMs = append(smallMs, s.wall*1000)
			// A forty-packet window is too short for the accepted-load
			// test behind Saturated to mean anything; delivery is the check.
			why := ""
			if s.res.SampledDelivered != smallSample {
				why = fmt.Sprintf("%s small job %d: %d of %d delivered", w.name, len(smallMs), s.res.SampledDelivered, smallSample)
			}
			res.op(why)
		}
		refs = append(refs, refPass())
		groupMs = append(groupMs, median(ms)/hostFactor(refs[len(refs)-2], refs[len(refs)-1]))
		if cfg.quick || (g+1 >= minSmallGroups && time.Since(blockStart).Seconds() > cfg.seconds*warmShare) {
			break
		}
	}

	res.Metrics["cycles_per_ref_s"] = median(perRef)
	res.Metrics["allocs_per_kcycle"] = median(allocs)
	res.Metrics["alloc_kb_per_kcycle"] = median(allocKB)
	res.Metrics["warm_p50_ms"] = median(groupMs)
	res.Metrics["peak_rss_mb"] = median(rss)
	res.Samples["cycles_per_wall_s"] = raw
	res.Samples["cycles_per_ref_s"] = perRef
	res.Samples["peak_rss_mb"] = rss
	res.Samples["ref_pass_s"] = refs
	res.Samples["small_job_ms"] = smallMs
	return res
}

// traceSingle is the per-layer pass of a single-run workload: one bracketed
// repetition for the harness-level numbers, then the driver loop and the
// micro ladder of the layer build.
func traceSingle(cfg childConfig, res *runResult, spec frfc.Spec) {
	w := cfg.workload
	refs := []float64{refPass(), refPass(), refPass()}
	s := timedRun(spec, w.load)
	refs = append(refs, refPass())
	why := unusable(s.res)
	if why != "" {
		why = w.name + " traced-run repetition: " + why
	}
	res.op(why)
	m := res.Metrics
	m["experiment.cycles_per_wall_s"] = float64(s.res.Cycles) / s.wall
	m["experiment.gc_cycles_per_rep"] = float64(s.numGC)
	m["experiment.gc_pause_ms_per_rep"] = float64(s.pauseNs) / 1e6
	m["experiment.heap_peak_mb"] = float64(s.heapSys) / (1 << 20)
	m["bench.ref_pass_ms"] = median(refs) * 1000
	m["bench.ref_pass_spread_pct"] = spreadPct(refs)
	layerSingle(cfg, res)
	layerMicro(cfg, res)
}
