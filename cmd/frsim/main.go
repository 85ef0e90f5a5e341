// Command frsim runs one flow-control configuration at one offered load and
// reports latency and throughput.
//
// Usage:
//
//	frsim -config FR6 -wiring fast -load 0.5
//	frsim -config VC16 -wiring leading -pktlen 21 -load 0.3 -sample 20000
//	frsim -config FR6-lead2 -wiring leading -load 0.3
//	frsim -config FR6 -buffers 10 -horizon 64 -load 0.6 -pattern transpose
//
// -config names every configuration, as sweep's -configs and the campaign
// service's configs do; -buffers, -ctrlvcs, -horizon and -leads (FR configs)
// and -vcs and -bufpervc (VC configs) override one field of it when given, and
// the run is then labelled custom. The old spellings -custom, -fr and -lead are
// refused with a pointer to these.
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
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"reflect"
	"slices"
	"strings"

	"frfc/internal/cli"
	"frfc/internal/core"
	"frfc/internal/experiment"
	"frfc/internal/metrics"
	"frfc/internal/noc"
	"frfc/internal/sim"
	"frfc/internal/topology"
	"frfc/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// artefact is one thing an observed run reports beyond its measurement — the
// file (or pair of files) a flag asks for, or a collector's one-line digest —
// declared once: the flag and its help (a digest has none: it is reported
// whenever its collector was armed), the collector the flag arms, the files it
// writes, what the collector held, and the label and position of its line in
// the text report. run walks the table to bind the flags, arm the collectors,
// write the files and assemble both reports; the -json summary lists the
// table's fields in table order.
type artefact struct {
	flag, help string
	value      *string // the flag's, once bound
	arm        func(*metrics.Options)
	outs       []out
	// held, when set, reports what the collector held: more -json fields,
	// and what follows the paths on the text line.
	held  func(*metrics.Probe) ([]field, string)
	label string
	line  int
}

// out is one file of an artefact: the -json key its path is reported under,
// what the path adds to the flag's value, and the collector's writer — alt
// instead, for a path ending in ext, where the collector exports two formats.
type out struct {
	key, suffix string
	write       func(*metrics.Probe, io.Writer) error
	ext         string
	alt         func(*metrics.Probe, io.Writer) error
}

// field is one key of the -json summary after its fixed head; a zero value is
// left out.
type field struct {
	key string
	val any
}

// artefacts is the table; filter narrows the trace export, and radix is the
// run's mesh radix, which names each router of the trace by its coordinates.
func artefacts(filter *trace.Filter, radix *int) []artefact {
	counters := func(o *metrics.Options) { o.Metrics = true }
	profile := func(o *metrics.Options) { o.Profile = true }
	return []artefact{
		{flag: "metrics", help: "write the per-router metrics registry as JSON to this file",
			arm: counters, label: "metrics", line: 3,
			outs: []out{{key: "metricsPath", write: func(p *metrics.Probe, w io.Writer) error { return topology.WriteJSON(w, p.Reg) }}}},
		{flag: "heatmap", help: "write PREFIX-occupancy.csv and PREFIX-utilization.csv heatmaps (implies metrics)",
			arm: counters, label: "heatmaps", line: 4,
			outs: []out{
				{key: "occupancyCsvPath", suffix: "-occupancy.csv", write: func(p *metrics.Probe, w io.Writer) error { return p.Reg.WriteOccupancyCSV(w) }},
				{key: "utilizationCsvPath", suffix: "-utilization.csv", write: func(p *metrics.Probe, w io.Writer) error { return p.Reg.WriteUtilizationCSV(w) }},
			}},
		{flag: "trace", help: "write a Perfetto-loadable Chrome trace-event JSON flit trace to this file",
			arm: func(o *metrics.Options) { o.Trace = true }, label: "trace", line: 7,
			outs: []out{{key: "tracePath", write: func(p *metrics.Probe, w io.Writer) error { return p.Tracer.WriteChrome(w, *radix, *filter) }}},
			held: func(p *metrics.Probe) ([]field, string) {
				n, dropped := p.Tracer.Len(), p.Tracer.Dropped()
				return []field{{"traceEvents", n}, {"traceDropped", dropped}},
					fmt.Sprintf(" (%d events buffered, %d overwritten)", n, dropped)
			}},
		{flag: "timeseries", help: "write the per-epoch telemetry series to this file, one row per metrics epoch (.json extension = JSON, anything else = CSV; implies metrics)",
			arm: func(o *metrics.Options) { o.TimeSeries = true }, label: "timeseries", line: 8,
			outs: []out{{key: "timeSeriesPath",
				write: func(p *metrics.Probe, w io.Writer) error { return p.Series.WriteCSV(w) },
				ext:   ".json", alt: func(p *metrics.Probe, w io.Writer) error { return p.Series.WriteJSON(w) }}},
			held: func(p *metrics.Probe) ([]field, string) {
				n, dropped := p.Series.Len(), p.Series.Dropped()
				return []field{{"timeSeriesPoints", n}, {"timeSeriesDropped", dropped}},
					fmt.Sprintf(" (%d points, %d dropped)", n, dropped)
			}},
		{flag: "profile", help: "write the simulator self-profile (per-node activity accounting, phase attribution, memory epochs) as JSON to this file",
			arm: profile, label: "profile json", line: 5,
			outs: []out{{key: "profilePath", write: func(p *metrics.Probe, w io.Writer) error { return topology.WriteJSON(w, p.Prof) }}}},
		{flag: "idle-csv", help: "write the k x k idle-router-tick-fraction heatmap as CSV to this file (implies -profile collection)",
			arm: profile, label: "idle heatmap", line: 6,
			outs: []out{{key: "idleCsvPath", write: func(p *metrics.Probe, w io.Writer) error { return p.Prof.WriteIdleCSV(w) }}}},
		{label: "profile", line: 0,
			held: func(p *metrics.Probe) ([]field, string) {
				if p.Prof == nil {
					return nil, ""
				}
				sum := p.Prof.Summary()
				text := sum
				for _, h := range p.Prof.Hottest(3) {
					text += fmt.Sprintf("\nprofile hot   router %d at (%d,%d): %.1f%% of ticks active", h.Node, h.X, h.Y, h.ActiveFraction*100)
				}
				return []field{{"profileSummary", sum}}, text
			}},
		{flag: "waterfall", help: "collect per-packet latency provenance and write the stage waterfall to this file (.csv extension = CSV, anything else = JSON); also prints the per-stage breakdown",
			arm: func(o *metrics.Options) { o.Waterfall = true }, label: "waterfall out", line: 2,
			outs: []out{{key: "waterfallPath",
				write: func(p *metrics.Probe, w io.Writer) error { return p.WF.WriteJSON(w) },
				ext:   ".csv", alt: func(p *metrics.Probe, w io.Writer) error { return p.WF.WriteCSV(w) }}}},
		{label: "waterfall", line: 1,
			held: func(p *metrics.Probe) ([]field, string) {
				if p.WF == nil {
					return nil, ""
				}
				sum := p.WF.Summary()
				return []field{{"waterfallSummary", sum}}, sum
			}},
	}
}

// knobs are the structural overrides: each sets one router field of the config
// -config names when its flag is given, and refuses a value below min (or above
// max, when set). experiment.CheckOption refuses one on a flow without its
// field.
var knobs = []struct {
	flag, help string
	min, max   int
	set        func(*experiment.Spec, int)
}{
	{"buffers", "FR configs: data buffers per input pool", 1, core.MaxDataBuffers, func(s *experiment.Spec, v int) { s.FR.DataBuffers = v }},
	{"ctrlvcs", "FR configs: control virtual channels", 1, 0, func(s *experiment.Spec, v int) { s.FR.CtrlVCs = v }},
	{"horizon", "FR configs: scheduling horizon in cycles", 2, 0, func(s *experiment.Spec, v int) { s.FR.Horizon = sim.Cycle(v) }},
	{"leads", "FR configs: data flits led per control flit", 1, 0, func(s *experiment.Spec, v int) { s.FR.LeadsPerCtrl = v }},
	{"vcs", "VC configs: virtual channels", 1, 0, func(s *experiment.Spec, v int) { s.VC.NumVCs = v }},
	{"bufpervc", "VC configs: buffers per virtual channel", 1, 0, func(s *experiment.Spec, v int) { s.VC.BufPerVC = v }},
}

// goneFlag returns the refusal for the first flag in args that frsim no longer
// has, naming what took its place, or "" if there is none. An old command line
// is refused in one line, not with the whole usage text.
func goneFlag(args []string) string {
	for i, a := range args {
		if a == "--" {
			break
		}
		name, value, _ := strings.Cut(strings.TrimLeft(a, "-"), "=")
		if !strings.HasPrefix(a, "-") {
			continue
		}
		switch name {
		case "custom":
			return "-custom is gone: -buffers, -ctrlvcs, -horizon, -leads, -vcs and -bufpervc override the config -config names"
		case "fr":
			return "-fr is gone: name the flow with -config, as -config VC8"
		case "lead":
			if value == "" && i+1 < len(args) {
				value = args[i+1]
			}
			return fmt.Sprintf("-lead %s is gone: name the lead in the config, as -config FR6-lead%s -wiring leading", value, value)
		}
	}
	return ""
}

// run is main with its environment made explicit, so tests can drive the
// whole command and assert on output and exit codes.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("frsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		config  = fs.String("config", "FR6", "named configuration: "+experiment.ConfigNames)
		load    = fs.Float64("load", 0.5, "offered traffic as a fraction of capacity")
		radix   = fs.Int("radix", 8, "mesh radix k (k x k nodes)")
		pattern = fs.String("pattern", "uniform", "traffic pattern: uniform, transpose, bitcomp, tornado, neighbor, bitrev, shuffle")

		scenario = fs.String("scenario", "", `hard-fault schedule, e.g. "down 5-6 @2000; up 5-6 @6000; kill 9 @8000"; FR configs only`)
		retry    = fs.Int("retry", 0, "end-to-end retry budget per packet (0 = off; fault scenarios need it to recover in-flight losses); FR configs only")
		ber      = fs.Float64("ber", 0, "per-flit bit-error probability on inter-router links (delivered corrupted, not lost); FR and VC configs only")
		crcBits  = fs.Int("crc-bits", 0, "modeled per-hop CRC width: corruption detected with probability 1-2^-bits (0 = default 16 under -ber, negative = no hop detection); FR and VC configs only")
		e2eCheck = fs.Bool("e2e-check", false, "arm the end-to-end payload checksum: corrupted packets are retried instead of delivered; FR configs only")
		chaos    = fs.Float64("chaos", 0, "chaos campaign intensity in (0,1]: composed loss, bit errors, link flaps, corruption spikes and (>=0.75) router kills; FR configs only")

		jsonOut = fs.Bool("json", false, "print one machine-readable JSON summary object instead of text")
		opts    metrics.Options
		filter  trace.Filter
		node    int
	)
	shared := cli.Bind(fs)
	fs.IntVar(&opts.MetricsEpoch, "metrics-epoch", 0, "gauge and memory sampling period in cycles (0 = default)")
	fs.IntVar(&opts.TraceCapacity, "trace-cap", 0, "trace ring capacity in events, newest kept on overflow (0 = default)")
	fs.IntVar(&opts.TimeSeriesCapacity, "timeseries-cap", 0, "retained time-series points, oldest dropped on overflow (0 = keep every epoch)")
	fs.IntVar(&node, "trace-node", -1, "export only trace events at this router (-1 = all)")
	fs.Uint64Var(&filter.Packet, "trace-packet", 0, "export only this packet's trace events (0 = all)")
	fs.Int64Var((*int64)(&filter.From), "trace-from", 0, "export only trace events at or after this cycle")
	fs.Int64Var((*int64)(&filter.To), "trace-to", 0, "export only trace events at or before this cycle (0 = unbounded)")
	values := make([]*int, len(knobs))
	for i, k := range knobs {
		values[i] = fs.Int(k.flag, 0, k.help+" (default: the config's)")
	}
	table := artefacts(&filter, radix)
	for i, a := range table {
		if a.flag != "" {
			table[i].value = fs.String(a.flag, "", a.help)
		}
	}
	fail := cli.Refusal("frsim", stderr)
	if msg := goneFlag(args); msg != "" {
		return fail("%s", msg)
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	filter.Node = int32(node)

	// Everything the run can be refused for is refused here, by name, before
	// a network exists: a value out of range would otherwise fall back to a
	// default in silence, be ignored, or panic deep inside the simulator. A
	// structural knob is checked only when given: unset, it is the config's.
	given := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { given[f.Name] = true })
	switch {
	case opts.MetricsEpoch < 0:
		return fail("-metrics-epoch must be >= 0 (got %d; 0 means the default epoch)", opts.MetricsEpoch)
	case opts.TraceCapacity < 0:
		return fail("-trace-cap must be >= 0 (got %d; 0 means the default capacity)", opts.TraceCapacity)
	case opts.TimeSeriesCapacity < 0:
		return fail("-timeseries-cap must be >= 0 (got %d; 0 keeps every epoch)", opts.TimeSeriesCapacity)
	case *radix < 2:
		return fail("-radix must be >= 2 (got %d)", *radix)
	case *retry < 0 || *retry > noc.MaxLen:
		return fail("-retry must be in [0,%d] (got %d; 0 means no retry)", noc.MaxLen, *retry)
	case *ber < 0 || *ber >= 1:
		return fail("-ber must be a probability in [0,1) (got %g)", *ber)
	case *crcBits > noc.MaxCrcBits:
		return fail("-crc-bits must be <= %d (got %d; 0 means the default, negative disables the hop CRC)", noc.MaxCrcBits, *crcBits)
	case *chaos < 0 || *chaos > 1:
		return fail("-chaos must be an intensity in (0,1] (got %g; 0 means no chaos)", *chaos)
	case shared.ChaosSeed != 0 && *chaos == 0:
		return fail("-chaos-seed %d applies to -chaos runs only", shared.ChaosSeed)
	}
	for i, k := range knobs {
		switch v := *values[i]; {
		case !given[k.flag]:
		case k.max > 0 && (v < k.min || v > k.max):
			return fail("-%s must be in [%d,%d] (got %d)", k.flag, k.min, k.max, v)
		case v < k.min:
			return fail("-%s must be >= %d (got %d)", k.flag, k.min, v)
		}
	}
	if err := shared.Validate(); err != nil {
		return fail("%v", err)
	}

	// The config is a one-point grid, resolved, refined and validated where
	// sweep's and the campaign service's are.
	specs, _, err := cli.Expand(experiment.Grid{
		Configs: []string{*config}, Wiring: shared.Wiring, PacketLen: shared.PktLen, Loads: []float64{*load},
		Sample: shared.Sample, Warmup: shared.Warmup, Seed: shared.Seed, Routing: shared.Routing, Check: shared.Check,
	})
	if err != nil {
		return fail("%v", err)
	}
	spec := specs[0]
	spec.MeshRadix = *radix
	if spec.Pattern, err = experiment.ParsePattern(*pattern); err != nil {
		return fail("-%v", err)
	}
	// An option the spec's flow has no model of — a structural knob included
	// — is refused by name, not run as if unset or left to panic in the
	// simulator.
	var stray error
	fs.Visit(func(f *flag.Flag) {
		if stray == nil {
			stray = experiment.CheckOption(f.Name, f.Value.String(), spec)
		}
	})
	if stray != nil {
		return fail("-%v", stray)
	}
	// A given knob sets its field on the config, and the run is then custom.
	// The flit-reservation fields must still fit together: the horizon past
	// the data wire, a control lead (reserved in the interface's injection
	// table, which reaches one horizon ahead) within the horizon, and the
	// pool admitting a control flit's leads beside the other control VCs.
	name := spec.Name
	for i, k := range knobs {
		if given[k.flag] {
			k.set(&spec, *values[i])
			spec.Name = "custom"
		}
	}
	if fr := spec.FR; spec.Flow == experiment.FlitReservation {
		switch need := fr.LeadsPerCtrl + fr.CtrlVCs - 1; {
		case fr.Horizon <= fr.DataLinkLatency:
			return fail("-horizon must exceed the %d-cycle data link latency of %s wiring (got %d)", fr.DataLinkLatency, shared.Wiring, fr.Horizon)
		case fr.LeadCycles > fr.Horizon:
			return fail("-horizon %d is shorter than the %d-cycle control lead of %s", fr.Horizon, fr.LeadCycles, name)
		case fr.DataBuffers < need:
			return fail("-buffers %d cannot admit -leads %d beside -ctrlvcs %d: want at least leads + ctrlvcs - 1 = %d", fr.DataBuffers, fr.LeadsPerCtrl, fr.CtrlVCs, need)
		}
	}
	if *scenario != "" {
		if spec.Faults, err = core.ParseScenario(*scenario); err != nil {
			return fail("%v", err)
		}
	}
	// Every refinement at its flag's default is the identity on a spec. The
	// bit-error knobs reach both flow-control families; retry and the
	// end-to-end check exist under flit reservation only.
	spec.FR.RetryLimit = *retry
	spec.FR.BER, spec.VC.BER = *ber, *ber
	spec.FR.CrcBits, spec.VC.CrcBits = *crcBits, *crcBits
	spec.FR.E2ECheck = *e2eCheck
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
	// The live status server reads the counter registry and receives the
	// run's snapshots; otherwise the run is observed only as far as an
	// artefact flag asks (a probe with nothing armed collects nothing).
	opts.Metrics = st != nil
	for _, a := range table {
		if a.flag != "" && *a.value != "" {
			a.arm(&opts)
		}
	}
	probe := metrics.NewProbe(opts)
	var publish func(experiment.Live)
	if st != nil {
		publish = st.OnLive
	}
	r, _ := experiment.RunInstrumented(context.Background(), spec, *load, probe, publish)

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
				if err := cli.WriteFile(path, func(w io.Writer) error { return write(probe, w) }); err != nil {
					return fail("%v", err)
				}
				paths = append(paths, path)
				sum.artefacts = append(sum.artefacts, field{f.key, path})
			}
		}
		note := ""
		if a.held != nil {
			var fields []field
			if fields, note = a.held(probe); a.flag == "" && note == "" {
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
	Config    string            `json:"config"`
	Wiring    string            `json:"wiring"`
	PktLen    int               `json:"pktLen"`
	Radix     int               `json:"radix"`
	Seed      uint64            `json:"seed,omitempty"`
	Pattern   string            `json:"pattern"`
	Routing   string            `json:"routing,omitempty"`
	Scenario  string            `json:"scenario,omitempty"`
	BER       float64           `json:"ber,omitempty"`
	Chaos     float64           `json:"chaos,omitempty"`
	ChaosSeed uint64            `json:"chaosSeed,omitempty"`
	Result    experiment.Result `json:"result"`
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
