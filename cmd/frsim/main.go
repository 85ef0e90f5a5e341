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
//	frsim -config FR6 -radix 4 -load 0.3 -retry 8 -scenario "down 5-6 @2000; up 5-6 @6000" -check
//	frsim -config FR6 -radix 4 -load 0.3 -retry 8 -scenario "kill 9 @2000"
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
	"reflect"
	"slices"
	"strings"

	"frfc"
	"frfc/internal/cli"
	"frfc/internal/core"
	"frfc/internal/experiment"
	"frfc/internal/noc"
	"frfc/internal/sim"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// artefact is one thing an observed run reports beyond its measurement — the
// file (or pair of files) a flag asks for, or a collector's one-line digest —
// declared once: the flag and its help (a digest has none: it is reported
// whenever its collector was armed), the collector the flag arms, the files it
// writes, what the collector held, and the label and position of its line in
// the text report. run walks the table to bind the flags, arm the observer,
// write the files and assemble both reports; the -json summary lists the
// table's fields in table order.
type artefact struct {
	flag, help string
	value      *string // the flag's, once bound
	arm        func(*frfc.ObserverOptions)
	outs       []out
	// held, when set, reports what the collector held: more -json fields,
	// and what follows the paths on the text line.
	held  func(*frfc.Observer) ([]field, string)
	label string
	line  int
}

// out is one file of an artefact: the -json key its path is reported under,
// what the path adds to the flag's value, and the writer — alt instead, for a
// path ending in ext, where the collector exports two formats.
type out struct {
	key, suffix string
	write       func(*frfc.Observer, io.Writer) error
	ext         string
	alt         func(*frfc.Observer, io.Writer) error
}

// field is one key of the -json summary after its fixed head; a zero value is
// left out.
type field struct {
	key string
	val any
}

// artefacts is the table; filter narrows the trace export.
func artefacts(filter *frfc.TraceFilter) []artefact {
	metrics := func(o *frfc.ObserverOptions) { o.Metrics = true }
	profile := func(o *frfc.ObserverOptions) { o.Profile = true }
	return []artefact{
		{flag: "metrics", help: "write the per-router metrics registry as JSON to this file",
			arm: metrics, label: "metrics", line: 3,
			outs: []out{{key: "metricsPath", write: (*frfc.Observer).WriteMetricsJSON}}},
		{flag: "heatmap", help: "write PREFIX-occupancy.csv and PREFIX-utilization.csv heatmaps (implies metrics)",
			arm: metrics, label: "heatmaps", line: 4,
			outs: []out{
				{key: "occupancyCsvPath", suffix: "-occupancy.csv", write: (*frfc.Observer).WriteOccupancyCSV},
				{key: "utilizationCsvPath", suffix: "-utilization.csv", write: (*frfc.Observer).WriteUtilizationCSV},
			}},
		{flag: "trace", help: "write a Perfetto-loadable Chrome trace-event JSON flit trace to this file",
			arm: func(o *frfc.ObserverOptions) { o.Trace = true }, label: "trace", line: 7,
			outs: []out{{key: "tracePath", write: func(o *frfc.Observer, w io.Writer) error { return o.WriteTrace(w, *filter) }}},
			held: func(o *frfc.Observer) ([]field, string) {
				n, dropped := o.TraceEventCount()
				return []field{{"traceEvents", n}, {"traceDropped", dropped}},
					fmt.Sprintf(" (%d events buffered, %d overwritten)", n, dropped)
			}},
		{flag: "timeseries", help: "write the per-epoch telemetry series to this file, one row per metrics epoch (.json extension = JSON, anything else = CSV; implies metrics)",
			arm: func(o *frfc.ObserverOptions) { o.TimeSeries = true }, label: "timeseries", line: 8,
			outs: []out{{key: "timeSeriesPath", write: (*frfc.Observer).WriteTimeSeriesCSV, ext: ".json", alt: (*frfc.Observer).WriteTimeSeriesJSON}},
			held: func(o *frfc.Observer) ([]field, string) {
				n, dropped := o.TimeSeriesLen()
				return []field{{"timeSeriesPoints", n}, {"timeSeriesDropped", dropped}},
					fmt.Sprintf(" (%d points, %d dropped)", n, dropped)
			}},
		{flag: "profile", help: "write the simulator self-profile (per-node activity accounting, phase attribution, memory epochs) as JSON to this file",
			arm: profile, label: "profile json", line: 5,
			outs: []out{{key: "profilePath", write: (*frfc.Observer).WriteProfileJSON}}},
		{flag: "idle-csv", help: "write the k x k idle-router-tick-fraction heatmap as CSV to this file (implies -profile collection)",
			arm: profile, label: "idle heatmap", line: 6,
			outs: []out{{key: "idleCsvPath", write: (*frfc.Observer).WriteIdleCSV}}},
		{label: "profile", line: 0,
			held: func(o *frfc.Observer) ([]field, string) {
				sum := o.ProfileSummary()
				text := sum
				for _, h := range o.HottestRouters(3) {
					text += fmt.Sprintf("\nprofile hot   router %d at (%d,%d): %.1f%% of ticks active", h.Node, h.X, h.Y, h.ActiveFraction*100)
				}
				return []field{{"profileSummary", sum}}, text
			}},
		{flag: "waterfall", help: "collect per-packet latency provenance and write the stage waterfall to this file (.csv extension = CSV, anything else = JSON); also prints the per-stage breakdown",
			arm: func(o *frfc.ObserverOptions) { o.Waterfall = true }, label: "waterfall out", line: 2,
			outs: []out{{key: "waterfallPath", write: (*frfc.Observer).WriteWaterfallJSON, ext: ".csv", alt: (*frfc.Observer).WriteWaterfallCSV}}},
		{label: "waterfall", line: 1,
			held: func(o *frfc.Observer) ([]field, string) {
				sum := o.WaterfallSummary()
				return []field{{"waterfallSummary", sum}}, sum
			}},
	}
}

// run is main with its environment made explicit, so tests can drive the
// whole command and assert on output and exit codes.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("frsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		config  = fs.String("config", "FR6", "named configuration: "+frfc.ConfigNames)
		lead    = fs.Int("lead", 1, "control lead in cycles (leading wiring only; -config FR6 -lead N is FR6-leadN)")
		load    = fs.Float64("load", 0.5, "offered traffic as a fraction of capacity")
		radix   = fs.Int("radix", 8, "mesh radix k (k x k nodes)")
		pattern = fs.String("pattern", "uniform", "traffic pattern: uniform, transpose, bitcomp, tornado, neighbor, bitrev, shuffle")

		custom  = fs.Bool("custom", false, "build a custom configuration from the knobs below instead of -config")
		fr      = fs.Bool("fr", true, "custom: use flit-reservation flow control (false = virtual channels)")
		buffers = fs.Int("buffers", 6, "custom FR: data buffers per input pool")
		ctrlVCs = fs.Int("ctrlvcs", 2, "custom FR: control virtual channels")
		horizon = fs.Int("horizon", 32, "custom FR: scheduling horizon in cycles")
		leads   = fs.Int("leads", 1, "custom FR: data flits led per control flit")
		vcs     = fs.Int("vcs", 2, "custom VC: virtual channels")
		bufVC   = fs.Int("bufpervc", 4, "custom VC: buffers per virtual channel")

		scenario = fs.String("scenario", "", `hard-fault schedule, e.g. "down 5-6 @2000; up 5-6 @6000; kill 9 @8000"; FR configs only`)
		retry    = fs.Int("retry", 0, "end-to-end retry budget per packet (0 = off; fault scenarios need it to recover in-flight losses); FR configs only")
		ber      = fs.Float64("ber", 0, "per-flit bit-error probability on inter-router links (delivered corrupted, not lost); FR and VC configs only")
		crcBits  = fs.Int("crc-bits", 0, "modeled per-hop CRC width: corruption detected with probability 1-2^-bits (0 = default 16 under -ber, negative = no hop detection); FR and VC configs only")
		e2eCheck = fs.Bool("e2e-check", false, "arm the end-to-end payload checksum: corrupted packets are retried instead of delivered; FR configs only")
		chaos    = fs.Float64("chaos", 0, "chaos campaign intensity in (0,1]: composed loss, bit errors, link flaps, corruption spikes and (>=0.75) router kills; FR configs only")

		jsonOut = fs.Bool("json", false, "print one machine-readable JSON summary object instead of text")
		opts    frfc.ObserverOptions
		filter  frfc.TraceFilter
	)
	shared := cli.Bind(fs)
	fs.IntVar(&opts.MetricsEpoch, "metrics-epoch", 0, "gauge and memory sampling period in cycles (0 = default)")
	fs.IntVar(&opts.TraceCapacity, "trace-cap", 0, "trace ring capacity in events, newest kept on overflow (0 = default)")
	fs.IntVar(&opts.TimeSeriesCapacity, "timeseries-cap", 0, "retained time-series points, oldest dropped on overflow (0 = keep every epoch)")
	fs.IntVar(&filter.Node, "trace-node", -1, "export only trace events at this router (-1 = all)")
	fs.Uint64Var(&filter.Packet, "trace-packet", 0, "export only this packet's trace events (0 = all)")
	fs.Int64Var(&filter.From, "trace-from", 0, "export only trace events at or after this cycle")
	fs.Int64Var(&filter.To, "trace-to", 0, "export only trace events at or before this cycle (0 = unbounded)")
	table := artefacts(&filter)
	for i, a := range table {
		if a.flag != "" {
			table[i].value = fs.String(a.flag, "", a.help)
		}
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := cli.Refusal("frsim", stderr)

	// Everything the run can be refused for is refused here, by name, before
	// a network exists: a value out of range would otherwise fall back to a
	// default in silence, be ignored, or panic deep inside the simulator.
	w, err := frfc.ParseWiring(shared.Wiring)
	if err != nil {
		return fail("%v", err)
	}
	leadApplies := w == frfc.LeadingControl && (*custom && *fr || !*custom && *config == "FR6")
	// A lead is reserved in the interface's injection table, which reaches
	// one horizon ahead: -horizon's for -custom, FR6's otherwise.
	maxLead := *horizon
	if !*custom {
		maxLead = int(frfc.FR6(w, shared.PktLen).FR.Horizon)
	}
	switch {
	case opts.MetricsEpoch < 0:
		return fail("-metrics-epoch must be >= 0 (got %d; 0 means the default epoch)", opts.MetricsEpoch)
	case opts.TraceCapacity < 0:
		return fail("-trace-cap must be >= 0 (got %d; 0 means the default capacity)", opts.TraceCapacity)
	case opts.TimeSeriesCapacity < 0:
		return fail("-timeseries-cap must be >= 0 (got %d; 0 keeps every epoch)", opts.TimeSeriesCapacity)
	case *load <= 0 || *load > 2:
		return fail("-load must be in (0,2] (got %g)", *load)
	case *radix < 2:
		return fail("-radix must be >= 2 (got %d)", *radix)
	case *retry < 0 || *retry > noc.MaxLen:
		return fail("-retry must be in [0,%d] (got %d; 0 means no retry)", noc.MaxLen, *retry)
	case *ber < 0 || *ber >= 1:
		return fail("-ber must be a probability in [0,1) (got %g)", *ber)
	case *chaos < 0 || *chaos > 1:
		return fail("-chaos must be an intensity in (0,1] (got %g; 0 means no chaos)", *chaos)
	case shared.ChaosSeed != 0 && *chaos == 0:
		return fail("-chaos-seed %d applies to -chaos runs only", shared.ChaosSeed)
	case *lead != 1 && !leadApplies:
		return fail("-lead %d applies to -config FR6 (or -custom -fr) under -wiring leading only", *lead)
	case leadApplies && *lead > maxLead:
		return fail("-lead must be at most the %d-cycle horizon (got %d)", maxLead, *lead)
	case *buffers < 1 || *buffers > core.MaxDataBuffers:
		return fail("-buffers must be in [1,%d] (got %d)", core.MaxDataBuffers, *buffers)
	case *ctrlVCs < 1:
		return fail("-ctrlvcs must be >= 1 (got %d)", *ctrlVCs)
	case *horizon < 2:
		return fail("-horizon must be >= 2 (got %d)", *horizon)
	case *leads < 1:
		return fail("-leads must be >= 1 (got %d)", *leads)
	case *vcs < 1:
		return fail("-vcs must be >= 1 (got %d)", *vcs)
	case *bufVC < 1:
		return fail("-bufpervc must be >= 1 (got %d)", *bufVC)
	}
	if err := shared.Validate(); err != nil {
		return fail("%v", err)
	}

	var spec frfc.Spec
	if *custom {
		// A custom configuration is FR6 (FR6-leadN under leading control)
		// or VC8 with the knobs' values set on its fields; at the knobs'
		// defaults it is that preset.
		if *fr {
			spec = frfc.FR6(w, shared.PktLen)
			if leadApplies {
				spec = frfc.FRLead(*lead, shared.PktLen)
			}
			spec.FR.DataBuffers = *buffers
			spec.FR.CtrlVCs = *ctrlVCs
			spec.FR.Horizon = sim.Cycle(*horizon)
			spec.FR.LeadsPerCtrl = *leads
			if lat := spec.FR.DataLinkLatency; spec.FR.Horizon <= lat {
				return fail("-horizon must exceed the %d-cycle data link latency of %s wiring (got %d)", lat, w, *horizon)
			}
			if need := *leads + *ctrlVCs - 1; *buffers < need {
				return fail("-buffers %d cannot admit -leads %d beside -ctrlvcs %d: want at least leads + ctrlvcs - 1 = %d", *buffers, *leads, *ctrlVCs, need)
			}
		} else {
			spec = frfc.VC8(w, shared.PktLen)
			spec.VC.NumVCs = *vcs
			spec.VC.BufPerVC = *bufVC
		}
		spec.Name = "custom"
		spec.MeshRadix = *radix
		if spec.Pattern, err = frfc.ParsePattern(*pattern); err != nil {
			return fail("%v", err)
		}
		if err := experiment.CheckRouting(shared.Routing, spec); err != nil {
			return fail("%v", err)
		}
		spec.Routing = shared.Routing
	} else {
		// A named config is a one-point grid, resolved and validated where
		// sweep's and the campaign service's are; FR6 under leading control
		// with a lead of N is that vocabulary's FR6-leadN.
		name := *config
		if leadApplies {
			name = fmt.Sprintf("FR6-lead%d", *lead)
		}
		specs, _, err := frfc.Grid{
			Configs: []string{name}, Wiring: shared.Wiring, PacketLen: shared.PktLen,
			Loads: []float64{*load}, Routing: shared.Routing,
		}.Expand()
		if err != nil {
			return fail("%v", err)
		}
		spec = specs[0]
		spec.MeshRadix = *radix
		if p := *pattern; p != "uniform" {
			// Named presets keep uniform traffic, matching the paper;
			// use -custom for other patterns.
			return fail("named configs use uniform traffic; use -custom for pattern %q", p)
		}
	}
	// An option the spec's flow has no model of is refused by name, not run
	// as if unset or left to panic in the simulator.
	var stray error
	fs.Visit(func(f *flag.Flag) {
		if stray == nil {
			stray = experiment.CheckOption(f.Name, f.Value.String(), spec)
		}
	})
	if stray != nil {
		return fail("-%v", stray)
	}
	if *scenario != "" {
		if spec.Faults, err = frfc.ParseScenario(*scenario); err != nil {
			return fail("%v", err)
		}
	}
	// Every refinement at its flag's default is the identity on a spec. The
	// bit-error knobs reach both flow-control families; retry and the
	// end-to-end check exist under flit reservation only.
	spec.FR.RetryLimit = *retry
	spec.Check = shared.Check
	spec.FR.BER, spec.VC.BER = *ber, *ber
	spec.FR.CrcBits, spec.VC.CrcBits = *crcBits, *crcBits
	spec.FR.E2ECheck = *e2eCheck
	spec = spec.WithSampling(shared.Sample, shared.Warmup)
	spec.Seed = shared.Seed
	if *chaos > 0 {
		if *scenario != "" {
			return fail("-chaos and -scenario are mutually exclusive: the chaos plan generates its own fault schedule")
		}
		spec.ChaosIntensity, spec.ChaosSeed = *chaos, shared.ChaosSeed
	}

	st, stop, err := shared.Start("frsim", stderr)
	if err != nil {
		return fail("%v", err)
	}
	defer stop()
	// The live status server reads the counter registry; otherwise the run
	// is observed only as far as an artefact flag asks (an observer with
	// nothing armed collects nothing).
	opts.Metrics = st != nil
	for _, a := range table {
		if a.flag != "" && *a.value != "" {
			a.arm(&opts)
		}
	}
	obs := frfc.NewObserver(opts)
	r := frfc.RunLive(spec, *load, obs, st)

	sum := summary{
		Config:    spec.Name,
		Wiring:    shared.Wiring,
		PktLen:    shared.PktLen,
		Radix:     *radix,
		Seed:      shared.Seed,
		Pattern:   *pattern,
		Routing:   shared.Routing,
		Scenario:  *scenario,
		BER:       *ber,
		Chaos:     *chaos,
		ChaosSeed: shared.ChaosSeed,
		Result:    r,
	}
	// One pass over the table writes the files and gathers both reports: the
	// -json fields in table order, the text lines by their position.
	lines := make([]string, len(table))
	for _, a := range table {
		var paths []string
		if a.flag != "" {
			if *a.value == "" {
				continue
			}
			for _, f := range a.outs {
				path, write := *a.value+f.suffix, f.write
				if f.ext != "" && strings.HasSuffix(path, f.ext) {
					write = f.alt
				}
				if err := cli.WriteFile(path, func(w io.Writer) error { return write(obs, w) }); err != nil {
					return fail("%v", err)
				}
				paths = append(paths, path)
				sum.artefacts = append(sum.artefacts, field{f.key, path})
			}
		}
		note := ""
		if a.held != nil {
			var fields []field
			if fields, note = a.held(obs); a.flag == "" && note == "" {
				continue
			}
			sum.artefacts = append(sum.artefacts, fields...)
		}
		lines[a.line] = fmt.Sprintf("%-14s%s%s", a.label, strings.Join(paths, ", "), note)
	}

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(sum); err != nil {
			return fail("%v", err)
		}
		return 0
	}

	fmt.Fprintf(stdout, "config        %s (%s wiring, %d-flit packets, %dx%d mesh)\n", spec.Name, shared.Wiring, shared.PktLen, *radix, *radix)
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
	if *scenario != "" {
		fmt.Fprintf(stdout, "scenario      %s\n", *scenario)
		fmt.Fprintf(stdout, "degradation   %.1f%% of resolved packets delivered, %d unreachable, %d flits dropped, %d retried, %d abandoned\n",
			r.DeliveredFraction*100, r.UnreachablePackets, r.DroppedFlits, r.RetriedPackets, r.AbandonedPackets)
	}
	if *chaos > 0 {
		fmt.Fprintf(stdout, "chaos         intensity %.2f (seed %d): %.1f%% of resolved packets delivered, %d unreachable, %d retried, %d abandoned\n",
			*chaos, shared.ChaosSeed, r.DeliveredFraction*100, r.UnreachablePackets, r.RetriedPackets, r.AbandonedPackets)
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
	for _, line := range lines {
		if line != "" {
			fmt.Fprintln(stdout, line)
		}
	}
	return 0
}

// summary is the -json output: one machine-readable object per run, carrying
// the result and then, in the artefact table's order, the path of every file
// the run wrote and what its collectors held.
type summary struct {
	Config    string      `json:"config"`
	Wiring    string      `json:"wiring"`
	PktLen    int         `json:"pktLen"`
	Radix     int         `json:"radix"`
	Seed      uint64      `json:"seed,omitempty"`
	Pattern   string      `json:"pattern"`
	Routing   string      `json:"routing,omitempty"`
	Scenario  string      `json:"scenario,omitempty"`
	BER       float64     `json:"ber,omitempty"`
	Chaos     float64     `json:"chaos,omitempty"`
	ChaosSeed uint64      `json:"chaosSeed,omitempty"`
	Result    frfc.Result `json:"result"`
	artefacts []field
}

// MarshalJSON appends the artefact fields to the fixed head, in order.
func (s summary) MarshalJSON() ([]byte, error) {
	type head summary // the fields without this method
	b, err := json.Marshal(head(s))
	for _, f := range s.artefacts {
		if err != nil {
			break
		}
		if reflect.ValueOf(f.val).IsZero() {
			continue
		}
		var v []byte
		v, err = json.Marshal(f.val)
		b = slices.Concat(b[:len(b)-1], []byte(fmt.Sprintf(",%q:", f.key)), v, []byte("}"))
	}
	return b, err
}
