// Command frsim runs one flow-control configuration at one offered load and
// reports latency and throughput.
//
// Usage:
//
//	frsim -config FR6 -wiring fast -load 0.5
//	frsim -config VC16 -wiring leading -pktlen 21 -load 0.3 -sample 20000
//	frsim -custom -fr -buffers 10 -ctrlvcs 2 -horizon 64 -load 0.6
//
// Observability:
//
//	frsim -config FR6 -load 0.5 -trace trace.json -metrics metrics.json -heatmap heat
//	frsim -config FR6 -load 0.5 -json -metrics metrics.json
//	frsim -config FR6 -load 0.5 -timeseries series.csv
//	frsim -config FR6 -load 0.5 -profile profile.json -idle-csv idle.csv
//	frsim -config FR6 -load 0.5 -waterfall waterfall.json
//	frsim -config FR6 -load 0.5 -status-addr :8080
//	frsim -config FR6 -load 0.9 -cpuprofile cpu.pprof -memprofile mem.pprof
//
// Hard-fault scenarios (flit-reservation configurations):
//
//	frsim -config FR6 -radix 4 -load 0.3 -retry 8 -fail-link 5-6 -fail-at 2000 -recover-at 6000
//	frsim -config FR6 -radix 4 -load 0.3 -retry 8 -fail-router 9 -fail-at 2000
//	frsim -config FR6 -radix 4 -load 0.3 -retry 8 -scenario "down 5-6 @2000; up 5-6 @6000" -check
//	frsim -config FR6 -routing yx -load 0.5
//
// Data integrity and chaos (bit errors are delivered, not lost; the hop CRC
// and the end-to-end check hunt them):
//
//	frsim -config FR6 -radix 4 -load 0.3 -retry 8 -ber 1e-3 -crc-bits 4 -e2e-check
//	frsim -config VC8 -radix 4 -load 0.3 -ber 1e-3
//	frsim -config FR6 -radix 4 -load 0.3 -chaos 0.5 -chaos-seed 7 -check
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"frfc"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its environment made explicit, so tests can drive the
// whole command and assert on output and exit codes.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("frsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		config  = fs.String("config", "FR6", "named configuration: "+frfc.ConfigNames)
		wiring  = fs.String("wiring", "fast", "physical wiring: fast (4x control wires) or leading (1-cycle wires, control lead)")
		lead    = fs.Int("lead", 1, "control lead in cycles (leading wiring only; -config FR6 -lead N is FR6-leadN)")
		load    = fs.Float64("load", 0.5, "offered traffic as a fraction of capacity")
		pktLen  = fs.Int("pktlen", 5, "packet length in data flits")
		radix   = fs.Int("radix", 8, "mesh radix k (k x k nodes)")
		sample  = fs.Int("sample", 5000, "packets to sample")
		warmup  = fs.Int("warmup", 3000, "minimum warm-up cycles")
		seed    = fs.Uint64("seed", 0, "random seed (0 = default)")
		pattern = fs.String("pattern", "uniform", "traffic pattern: uniform, transpose, bitcomp, tornado, neighbor, bitrev, shuffle")

		custom  = fs.Bool("custom", false, "build a custom configuration from the knobs below instead of -config")
		fr      = fs.Bool("fr", true, "custom: use flit-reservation flow control (false = virtual channels)")
		buffers = fs.Int("buffers", 6, "custom FR: data buffers per input pool")
		ctrlVCs = fs.Int("ctrlvcs", 2, "custom FR: control virtual channels")
		horizon = fs.Int("horizon", 32, "custom FR: scheduling horizon in cycles")
		leads   = fs.Int("leads", 1, "custom FR: data flits led per control flit")
		vcs     = fs.Int("vcs", 2, "custom VC: virtual channels")
		bufVC   = fs.Int("bufpervc", 4, "custom VC: buffers per virtual channel")

		routing    = fs.String("routing", "", "routing algorithm: xy (default), yx, or table (fault-aware lookup tables); FR configs only")
		scenario   = fs.String("scenario", "", `hard-fault schedule, e.g. "down 5-6 @2000; up 5-6 @6000; kill 9 @8000"; FR configs only`)
		failLink   = fs.String("fail-link", "", "shorthand: sever the link between these neighbor nodes (A-B) at -fail-at")
		failRouter = fs.Int("fail-router", -1, "shorthand: permanently fail this node's router at -fail-at")
		failAt     = fs.Int64("fail-at", 2000, "cycle at which -fail-link/-fail-router strikes")
		recoverAt  = fs.Int64("recover-at", 0, "cycle at which the -fail-link link is restored (0 = never)")
		retry      = fs.Int("retry", 0, "end-to-end retry budget per packet (0 = off; fault scenarios need it to recover in-flight losses)")
		check      = fs.Bool("check", false, "run the per-cycle invariant checker (credit conservation, table accounting); FR configs only")
		ber        = fs.Float64("ber", 0, "per-flit bit-error probability on inter-router links (delivered corrupted, not lost)")
		crcBits    = fs.Int("crc-bits", 0, "modeled per-hop CRC width: corruption detected with probability 1-2^-bits (0 = default 16 under -ber, negative = no hop detection)")
		e2eCheck   = fs.Bool("e2e-check", false, "arm the end-to-end payload checksum: corrupted packets are retried instead of delivered; FR configs only")
		chaos      = fs.Float64("chaos", 0, "chaos campaign intensity in (0,1]: composed loss, bit errors, link flaps, corruption spikes and (>=0.75) router kills; FR configs only")
		chaosSeed  = fs.Uint64("chaos-seed", 0, "chaos plan generator seed (0 = default)")

		traceOut     = fs.String("trace", "", "write a Perfetto-loadable Chrome trace-event JSON flit trace to this file")
		traceCap     = fs.Int("trace-cap", 0, "trace ring capacity in events, newest kept on overflow (0 = default)")
		traceNode    = fs.Int("trace-node", -1, "export only trace events at this router (-1 = all)")
		tracePkt     = fs.Uint64("trace-packet", 0, "export only this packet's trace events (0 = all)")
		traceFrom    = fs.Int64("trace-from", 0, "export only trace events at or after this cycle")
		traceTo      = fs.Int64("trace-to", 0, "export only trace events at or before this cycle (0 = unbounded)")
		metricsOut   = fs.String("metrics", "", "write the per-router metrics registry as JSON to this file")
		metricsEpoch = fs.Int("metrics-epoch", 0, "gauge and memory sampling period in cycles (0 = default)")
		heatmap      = fs.String("heatmap", "", "write PREFIX-occupancy.csv and PREFIX-utilization.csv heatmaps (implies metrics)")
		seriesOut    = fs.String("timeseries", "", "write the per-epoch telemetry series to this file, one row per metrics epoch (.json extension = JSON, anything else = CSV; implies metrics)")
		seriesCap    = fs.Int("timeseries-cap", 0, "retained time-series points, oldest dropped on overflow (0 = keep every epoch)")
		profileOut   = fs.String("profile", "", "write the simulator self-profile (per-node activity accounting, phase attribution, memory epochs) as JSON to this file")
		wfOut        = fs.String("waterfall", "", "collect per-packet latency provenance and write the stage waterfall to this file (.csv extension = CSV, anything else = JSON); also prints the per-stage breakdown")
		idleCSV      = fs.String("idle-csv", "", "write the k x k idle-router-tick-fraction heatmap as CSV to this file (implies -profile collection)")
		statusAddr   = fs.String("status-addr", "", "serve live run status over HTTP on this host:port (/status JSON snapshot, /metrics Prometheus exposition); the result stays bit-identical")
		jsonOut      = fs.Bool("json", false, "print one machine-readable JSON summary object instead of text")
		cpuprofile   = fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memprofile   = fs.String("memprofile", "", "write a pprof heap profile after the run to this file")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "frsim: "+format+"\n", a...)
		return 2
	}

	// Flag validation: a negative capacity or epoch would silently fall back
	// to a default (or misbehave) deep inside the observer; reject it loudly
	// instead.
	if *metricsEpoch < 0 {
		return fail("-metrics-epoch must be >= 0 (got %d; 0 means the default epoch)", *metricsEpoch)
	}
	if *traceCap < 0 {
		return fail("-trace-cap must be >= 0 (got %d; 0 means the default capacity)", *traceCap)
	}
	if *seriesCap < 0 {
		return fail("-timeseries-cap must be >= 0 (got %d; 0 keeps every epoch)", *seriesCap)
	}
	if *load <= 0 || *load > 2 {
		return fail("-load must be in (0,2] (got %g)", *load)
	}
	if *sample <= 0 {
		return fail("-sample must be > 0 (got %d)", *sample)
	}
	if *warmup <= 0 {
		return fail("-warmup must be > 0 (got %d)", *warmup)
	}

	w, err := frfc.ParseWiring(*wiring)
	if err != nil {
		return fail("%v", err)
	}
	var spec frfc.Spec
	if *custom {
		leadCycles := 0
		if w == frfc.LeadingControl {
			leadCycles = *lead
		}
		spec, err = frfc.Custom("custom", frfc.Options{
			FlitReservation: *fr,
			MeshRadix:       *radix,
			PacketLen:       *pktLen,
			DataBuffers:     *buffers,
			CtrlVCs:         *ctrlVCs,
			Horizon:         *horizon,
			LeadsPerCtrl:    *leads,
			LeadCycles:      leadCycles,
			VCs:             *vcs,
			BufPerVC:        *bufVC,
			Wiring:          w,
			Pattern:         *pattern,
			Routing:         *routing,
		})
		if err != nil {
			return fail("%v", err)
		}
	} else {
		// A named config is a one-point grid, resolved and validated where
		// sweep's and the campaign service's are; FR6 under leading control
		// with a lead of N is that vocabulary's FR6-leadN.
		name := *config
		if name == "FR6" && w == frfc.LeadingControl {
			name = fmt.Sprintf("FR6-lead%d", *lead)
		}
		specs, _, err := frfc.Grid{
			Configs: []string{name}, Wiring: *wiring, PacketLen: *pktLen,
			Loads: []float64{*load}, Routing: *routing,
		}.Expand()
		if err != nil {
			return fail("%v", err)
		}
		spec = specs[0].WithMeshRadix(*radix)
		if p := *pattern; p != "uniform" {
			// Named presets keep uniform traffic, matching the paper;
			// use -custom for other patterns.
			return fail("named configs use uniform traffic; use -custom for pattern %q", p)
		}
	}
	scn, err := scenarioOf(*scenario, *failLink, *failRouter, *failAt, *recoverAt)
	if err != nil {
		return fail("%v", err)
	}
	if scn != "" {
		spec, err = spec.WithScenario(scn)
		if err != nil {
			return fail("%v", err)
		}
	}
	if *retry > 0 {
		spec = spec.WithRetry(*retry)
	}
	if *check {
		spec = spec.WithCheck(true)
	}
	if *ber > 0 {
		spec = spec.WithBER(*ber)
	}
	if *crcBits != 0 {
		spec = spec.WithCRC(*crcBits)
	}
	if *e2eCheck {
		spec = spec.WithE2ECheck(true)
	}
	if *chaos > 0 {
		if scn != "" {
			return fail("-chaos and -scenario/-fail-* are mutually exclusive: the chaos plan generates its own fault schedule")
		}
		spec = spec.WithChaos(*chaos, *chaosSeed)
	}
	spec = spec.WithSampling(*sample, *warmup)
	if *seed != 0 {
		spec = spec.WithSeed(*seed)
	}

	wantMetrics := *metricsOut != "" || *heatmap != ""
	wantTrace := *traceOut != ""
	wantSeries := *seriesOut != ""
	wantProfile := *profileOut != "" || *idleCSV != ""
	wantWaterfall := *wfOut != ""
	var obs *frfc.Observer
	if wantMetrics || wantTrace || wantSeries || wantProfile || wantWaterfall || *statusAddr != "" {
		obs = frfc.NewObserver(frfc.ObserverOptions{
			Metrics:            wantMetrics || *statusAddr != "",
			MetricsEpoch:       *metricsEpoch,
			Trace:              wantTrace,
			TraceCapacity:      *traceCap,
			TimeSeries:         wantSeries,
			TimeSeriesCapacity: *seriesCap,
			Profile:            wantProfile,
			Waterfall:          wantWaterfall,
		})
	}
	var st *frfc.StatusServer
	if *statusAddr != "" {
		var err error
		var bound string
		st, bound, err = frfc.ServeStatus(*statusAddr)
		if err != nil {
			return fail("%v", err)
		}
		defer st.Close()
		fmt.Fprintf(stderr, "frsim: status on http://%s/status, metrics on http://%s/metrics\n", bound, bound)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fail("%v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail("%v", err)
		}
	}
	r := frfc.RunLive(spec, *load, obs, st)
	if *cpuprofile != "" {
		pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		runtime.GC()
		f, err := os.Create(*memprofile)
		if err != nil {
			return fail("%v", err)
		}
		if err := pprof.WriteHeapProfile(f); err != nil {
			return fail("%v", err)
		}
		if err := f.Close(); err != nil {
			return fail("%v", err)
		}
	}

	sum := summary{
		Config:    spec.Name(),
		Wiring:    *wiring,
		PktLen:    *pktLen,
		Radix:     *radix,
		Seed:      *seed,
		Pattern:   *pattern,
		Routing:   *routing,
		Scenario:  scn,
		BER:       *ber,
		Chaos:     *chaos,
		ChaosSeed: *chaosSeed,
		Result:    r,
	}
	writeTo := func(path string, write func(io.Writer) error) (ok bool) {
		f, err := os.Create(path)
		if err == nil {
			if err = write(f); err != nil {
				f.Close()
			} else {
				err = f.Close()
			}
		}
		if err != nil {
			fmt.Fprintln(stderr, "frsim:", err)
		}
		return err == nil
	}
	if *metricsOut != "" {
		if !writeTo(*metricsOut, obs.WriteMetricsJSON) {
			return 2
		}
		sum.MetricsPath = *metricsOut
	}
	if *heatmap != "" {
		sum.OccupancyCSVPath = *heatmap + "-occupancy.csv"
		sum.UtilizationCSVPath = *heatmap + "-utilization.csv"
		if !writeTo(sum.OccupancyCSVPath, obs.WriteOccupancyCSV) ||
			!writeTo(sum.UtilizationCSVPath, obs.WriteUtilizationCSV) {
			return 2
		}
	}
	if *seriesOut != "" {
		write := obs.WriteTimeSeriesCSV
		if strings.HasSuffix(*seriesOut, ".json") {
			write = obs.WriteTimeSeriesJSON
		}
		if !writeTo(*seriesOut, write) {
			return 2
		}
		sum.TimeSeriesPath = *seriesOut
		sum.TimeSeriesPoints, sum.TimeSeriesDropped = obs.TimeSeriesLen()
	}
	if *profileOut != "" {
		if !writeTo(*profileOut, obs.WriteProfileJSON) {
			return 2
		}
		sum.ProfilePath = *profileOut
	}
	if *idleCSV != "" {
		if !writeTo(*idleCSV, obs.WriteIdleCSV) {
			return 2
		}
		sum.IdleCSVPath = *idleCSV
	}
	if wantProfile {
		sum.ProfileSummary = obs.ProfileSummary()
	}
	if wantWaterfall {
		write := obs.WriteWaterfallJSON
		if strings.HasSuffix(*wfOut, ".csv") {
			write = obs.WriteWaterfallCSV
		}
		if !writeTo(*wfOut, write) {
			return 2
		}
		sum.WaterfallPath = *wfOut
		sum.WaterfallSummary = obs.WaterfallSummary()
	}
	if *traceOut != "" {
		ok := writeTo(*traceOut, func(w io.Writer) error {
			return obs.WriteTrace(w, frfc.TraceFilter{
				Node:   *traceNode,
				Packet: *tracePkt,
				From:   *traceFrom,
				To:     *traceTo,
			})
		})
		if !ok {
			return 2
		}
		sum.TracePath = *traceOut
		sum.TraceEvents, sum.TraceDropped = obs.TraceEventCount()
	}

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(sum); err != nil {
			return fail("%v", err)
		}
		return 0
	}

	fmt.Fprintf(stdout, "config        %s (%s wiring, %d-flit packets, %dx%d mesh)\n", spec.Name(), *wiring, *pktLen, *radix, *radix)
	fmt.Fprintf(stdout, "offered load  %.1f%% of capacity (effective %.1f%% after bandwidth overhead)\n", r.Load*100, r.EffectiveLoad*100)
	if r.Batches > 0 {
		fmt.Fprintf(stdout, "avg latency   %.2f cycles (95%% CI ±%.2f batch-means over %d batches, ±%.2f i.i.d.; min %d, max %d)\n",
			r.AvgLatency, r.BatchCI95, r.Batches, r.CI95, r.MinLatency, r.MaxLatency)
	} else {
		fmt.Fprintf(stdout, "avg latency   %.2f cycles (95%% CI ±%.2f, min %d, max %d)\n", r.AvgLatency, r.CI95, r.MinLatency, r.MaxLatency)
	}
	if r.CISuspect {
		fmt.Fprintf(stdout, "note          latency samples are autocorrelated (lag-1 r=%.2f); trust the batch-means interval\n", r.Lag1Autocorr)
	}
	fmt.Fprintf(stdout, "percentiles   p50 %d, p95 %d, p99 %d cycles\n", r.P50, r.P95, r.P99)
	fmt.Fprintf(stdout, "decomposition %.2f cycles source queueing + %.2f cycles network\n", r.AvgQueueDelay, r.AvgLatency-r.AvgQueueDelay)
	fmt.Fprintf(stdout, "accepted      %.1f%% of capacity\n", r.AcceptedLoad*100)
	fmt.Fprintf(stdout, "sample        %d/%d packets delivered over %d cycles\n", r.SampledDelivered, r.SampleSize, r.Cycles)
	fmt.Fprintf(stdout, "pool full     %.1f%% of measured cycles (central router)\n", r.PoolFullFraction*100)
	if scn != "" {
		fmt.Fprintf(stdout, "scenario      %s\n", scn)
		fmt.Fprintf(stdout, "degradation   %.1f%% of resolved packets delivered, %d unreachable, %d flits dropped, %d retried, %d abandoned\n",
			r.DeliveredFraction*100, r.UnreachablePackets, r.DroppedFlits, r.RetriedPackets, r.AbandonedPackets)
	}
	if *chaos > 0 {
		fmt.Fprintf(stdout, "chaos         intensity %.2f (seed %d): %.1f%% of resolved packets delivered, %d unreachable, %d retried, %d abandoned\n",
			*chaos, *chaosSeed, r.DeliveredFraction*100, r.UnreachablePackets, r.RetriedPackets, r.AbandonedPackets)
	}
	if *ber > 0 || *chaos > 0 {
		fmt.Fprintf(stdout, "integrity     %d flits corrupted, %d caught by hop CRC, %d escaped to destination, %d phantom reservations, %d slots reclaimed\n",
			r.CorruptedFlits, r.CrcDetected, r.CorruptEscapes, r.PhantomReservations, r.ReclaimedSlots)
	}
	if r.Saturated {
		fmt.Fprintln(stdout, "status        SATURATED — offered load exceeds sustainable throughput")
	}
	if r.WarmupUnstable {
		fmt.Fprintln(stdout, "status        WARMUP-UNSTABLE — warm-up hit its cycle cap before queues settled; treat measurements with care")
	}
	if wantProfile {
		fmt.Fprintf(stdout, "profile       %s\n", sum.ProfileSummary)
		for _, h := range obs.HottestRouters(3) {
			fmt.Fprintf(stdout, "profile hot   router %d at (%d,%d): %.1f%% of ticks active\n",
				h.Node, h.X, h.Y, h.ActiveFraction*100)
		}
	}
	if wantWaterfall {
		fmt.Fprintf(stdout, "waterfall     %s\n", sum.WaterfallSummary)
		fmt.Fprintf(stdout, "waterfall out %s\n", sum.WaterfallPath)
	}
	if sum.MetricsPath != "" {
		fmt.Fprintf(stdout, "metrics       %s\n", sum.MetricsPath)
	}
	if sum.OccupancyCSVPath != "" {
		fmt.Fprintf(stdout, "heatmaps      %s, %s\n", sum.OccupancyCSVPath, sum.UtilizationCSVPath)
	}
	if sum.ProfilePath != "" {
		fmt.Fprintf(stdout, "profile json  %s\n", sum.ProfilePath)
	}
	if sum.IdleCSVPath != "" {
		fmt.Fprintf(stdout, "idle heatmap  %s\n", sum.IdleCSVPath)
	}
	if sum.TracePath != "" {
		fmt.Fprintf(stdout, "trace         %s (%d events buffered, %d overwritten)\n", sum.TracePath, sum.TraceEvents, sum.TraceDropped)
	}
	if sum.TimeSeriesPath != "" {
		fmt.Fprintf(stdout, "timeseries    %s (%d points, %d dropped)\n", sum.TimeSeriesPath, sum.TimeSeriesPoints, sum.TimeSeriesDropped)
	}
	return 0
}

// summary is the -json output: one machine-readable object per run, carrying
// the result plus the paths of every artifact the run wrote.
type summary struct {
	Config             string      `json:"config"`
	Wiring             string      `json:"wiring"`
	PktLen             int         `json:"pktLen"`
	Radix              int         `json:"radix"`
	Seed               uint64      `json:"seed,omitempty"`
	Pattern            string      `json:"pattern"`
	Routing            string      `json:"routing,omitempty"`
	Scenario           string      `json:"scenario,omitempty"`
	BER                float64     `json:"ber,omitempty"`
	Chaos              float64     `json:"chaos,omitempty"`
	ChaosSeed          uint64      `json:"chaosSeed,omitempty"`
	Result             frfc.Result `json:"result"`
	MetricsPath        string      `json:"metricsPath,omitempty"`
	OccupancyCSVPath   string      `json:"occupancyCsvPath,omitempty"`
	UtilizationCSVPath string      `json:"utilizationCsvPath,omitempty"`
	TracePath          string      `json:"tracePath,omitempty"`
	TraceEvents        int         `json:"traceEvents,omitempty"`
	TraceDropped       uint64      `json:"traceDropped,omitempty"`
	TimeSeriesPath     string      `json:"timeSeriesPath,omitempty"`
	TimeSeriesPoints   int         `json:"timeSeriesPoints,omitempty"`
	TimeSeriesDropped  int64       `json:"timeSeriesDropped,omitempty"`
	ProfilePath        string      `json:"profilePath,omitempty"`
	IdleCSVPath        string      `json:"idleCsvPath,omitempty"`
	ProfileSummary     string      `json:"profileSummary,omitempty"`
	WaterfallPath      string      `json:"waterfallPath,omitempty"`
	WaterfallSummary   string      `json:"waterfallSummary,omitempty"`
}

// scenarioOf merges the -scenario grammar with the -fail-link/-fail-router
// shorthands into one schedule string.
func scenarioOf(scenario, failLink string, failRouter int, failAt, recoverAt int64) (string, error) {
	var parts []string
	if scenario != "" {
		parts = append(parts, scenario)
	}
	if failLink != "" {
		parts = append(parts, fmt.Sprintf("down %s @%d", failLink, failAt))
		if recoverAt > 0 {
			parts = append(parts, fmt.Sprintf("up %s @%d", failLink, recoverAt))
		}
	} else if recoverAt > 0 {
		return "", fmt.Errorf("-recover-at needs -fail-link")
	}
	if failRouter >= 0 {
		parts = append(parts, fmt.Sprintf("kill %d @%d", failRouter, failAt))
	}
	return strings.Join(parts, "; "), nil
}
