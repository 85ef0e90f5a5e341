package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"frfc/internal/experiment"
	"frfc/internal/metrics"
	"frfc/internal/trace"
)

// The collectors frsim's artefact table writes, exercised through the table's
// own writers and digests on runs over the FR, VC and wormhole fabrics.

// chromeTrace mirrors the Chrome trace-event container, the format Perfetto
// loads.
type chromeTrace struct {
	TraceEvents []struct {
		Ph   string `json:"ph"`
		Name string `json:"name"`
		Pid  int64  `json:"pid"`
		Ts   int64  `json:"ts"`
	} `json:"traceEvents"`
}

// allEvents keeps every traced event.
var allEvents = trace.Filter{Node: -1}

// fabrics are the three fabric families every collector test runs on.
var fabrics = []struct {
	name string
	spec experiment.Spec
}{
	{"FR6", experiment.FR6(experiment.FastControl, 5)},
	{"VC8", experiment.VC8(experiment.FastControl, 5)},
	{"WH", experiment.WormholeSpec("WH8", experiment.FastControl, 8, 5)},
}

// smallRadix is the mesh radix of smallSpec's runs.
var smallRadix = 4

func smallSpec(s experiment.Spec) experiment.Spec {
	return s.WithMeshRadix(smallRadix).WithSampling(150, 400)
}

// observe runs spec at load with the collectors o arms.
func observe(t *testing.T, spec experiment.Spec, load float64, o metrics.Options) (experiment.Result, *metrics.Probe) {
	t.Helper()
	probe := metrics.NewProbe(o)
	r, err := experiment.RunInstrumented(context.Background(), spec, load, probe, nil)
	if err != nil {
		t.Fatal(err)
	}
	return r, probe
}

// export writes the file the table reports under key — its alt format when
// alt is set — through the table's writer, with filter narrowing a trace.
func export(t *testing.T, obs *metrics.Probe, key string, alt bool, filter trace.Filter) []byte {
	t.Helper()
	for _, a := range artefacts(&filter, &smallRadix) {
		for _, o := range a.outs {
			if o.key != key {
				continue
			}
			write := o.write
			if alt {
				write = o.alt
			}
			var buf bytes.Buffer
			if err := write(obs, &buf); err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			return buf.Bytes()
		}
	}
	t.Fatalf("no artefact writes %s", key)
	return nil
}

// held is what the table's row labelled label reports of its collector.
func held(t *testing.T, obs *metrics.Probe, label string) ([]field, string) {
	t.Helper()
	for _, a := range artefacts(&allEvents, &smallRadix) {
		if a.label == label && a.held != nil {
			return a.held(obs)
		}
	}
	t.Fatalf("no artefact row %q reports what it held", label)
	return nil, ""
}

func TestRunObservedCollectsMetricsAndTrace(t *testing.T) {
	for _, tc := range fabrics {
		t.Run(tc.name, func(t *testing.T) {
			r, obs := observe(t, smallSpec(tc.spec), 0.3, metrics.Options{Metrics: true, MetricsEpoch: 16, Trace: true, TraceCapacity: 1 << 16})
			if r.Saturated {
				t.Fatalf("light load saturated: %+v", r)
			}

			var reg struct {
				Radix  int `json:"radix"`
				Cycles int `json:"cycles"`
				Nodes  []struct {
					Injected int64 `json:"injected"`
					Ejected  int64 `json:"ejected"`
				} `json:"nodes"`
			}
			if err := json.Unmarshal(export(t, obs, "metricsPath", false, allEvents), &reg); err != nil {
				t.Fatalf("metrics JSON invalid: %v", err)
			}
			if reg.Radix != 4 || len(reg.Nodes) != 16 || reg.Cycles <= 0 {
				t.Fatalf("registry header wrong: radix=%d nodes=%d cycles=%d", reg.Radix, len(reg.Nodes), reg.Cycles)
			}
			var inj, ej int64
			for _, n := range reg.Nodes {
				inj += n.Injected
				ej += n.Ejected
			}
			if inj == 0 || ej == 0 {
				t.Fatalf("no injection/ejection activity recorded: inj=%d ej=%d", inj, ej)
			}

			occ := string(export(t, obs, "occupancyCsvPath", false, allEvents))
			util := string(export(t, obs, "utilizationCsvPath", false, allEvents))
			for _, csv := range []string{occ, util} {
				lines := strings.Split(strings.TrimSpace(csv), "\n")
				if len(lines) != 5 {
					t.Fatalf("heatmap CSV is not # + 4 rows:\n%s", csv)
				}
				if cells := strings.Split(lines[1], ","); len(cells) != 4 {
					t.Fatalf("heatmap row has %d cells, want 4", len(cells))
				}
			}
			var total float64
			for _, cell := range strings.Split(strings.Join(strings.Split(strings.TrimSpace(util), "\n")[1:], ","), ",") {
				var v float64
				if _, err := fmt.Sscanf(cell, "%g", &v); err != nil {
					t.Fatalf("non-numeric heatmap cell %q", cell)
				}
				total += v
			}
			if total <= 0 {
				t.Fatalf("utilization heatmap all zero:\n%s", util)
			}

			var ct chromeTrace
			if err := json.Unmarshal(export(t, obs, "tracePath", false, allEvents), &ct); err != nil {
				t.Fatalf("trace is not valid Chrome trace JSON: %v", err)
			}
			var instants, spans int
			for _, ev := range ct.TraceEvents {
				switch ev.Ph {
				case "i":
					instants++
				case "X":
					spans++
				}
			}
			if instants == 0 || spans == 0 {
				t.Fatalf("trace has %d instants, %d packet spans; want both > 0", instants, spans)
			}
			if fields, _ := held(t, obs, "trace"); fields[0].val != min(instants, 1<<16) {
				t.Fatalf("trace events buffered=%v, trace instants=%d", fields[0].val, instants)
			}
		})
	}
}

func TestTraceFilterByWindow(t *testing.T) {
	_, obs := observe(t, smallSpec(experiment.FR6(experiment.FastControl, 5)), 0.3, metrics.Options{Trace: true, TraceCapacity: 1 << 16})
	var ctAll, ctWin chromeTrace
	if err := json.Unmarshal(export(t, obs, "tracePath", false, allEvents), &ctAll); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(export(t, obs, "tracePath", false, trace.Filter{Node: -1, From: 100, To: 200}), &ctWin); err != nil {
		t.Fatal(err)
	}
	if len(ctWin.TraceEvents) == 0 || len(ctWin.TraceEvents) >= len(ctAll.TraceEvents) {
		t.Fatalf("window filter did not narrow: %d vs %d events", len(ctWin.TraceEvents), len(ctAll.TraceEvents))
	}
	for _, ev := range ctWin.TraceEvents {
		if ev.Ph == "i" && (ev.Ts < 100 || ev.Ts > 200) {
			t.Fatalf("windowed trace leaked instant at ts=%d", ev.Ts)
		}
	}
}

// TestProfiledRunObserved: arming Profile populates the Result's
// Observed.Activity, the exports render, and the hot-router ranking is
// ordered.
func TestProfiledRunObserved(t *testing.T) {
	for _, tc := range fabrics {
		t.Run(tc.name, func(t *testing.T) {
			spec := smallSpec(tc.spec)
			r, obs := observe(t, spec, 0.3, metrics.Options{Profile: true, MetricsEpoch: 16})
			if r.Observed == nil || r.Observed.Activity == nil || r.Observed.Waterfall != nil {
				t.Fatalf("sidecar of a profiled-only run: %+v", r.Observed)
			}
			a := r.Observed.Activity
			if a.Ticks == 0 || a.ActiveTicks == 0 {
				t.Fatalf("no profile activity: ticks=%d active=%d", a.Ticks, a.ActiveTicks)
			}
			if a.IdleFraction <= 0 || a.IdleFraction >= 1 {
				t.Fatalf("idle fraction %v out of (0,1) at light load", a.IdleFraction)
			}
			// Phase attribution lives inside the flit-reservation router;
			// the VC-lineage fabrics report component activity only.
			if tc.name == "FR6" && (a.SchedWork == 0 || a.ArbWork == 0 ||
				a.SwitchWork == 0 || a.CreditWork == 0) {
				t.Fatalf("phase attribution empty: sched=%d arb=%d switch=%d credit=%d",
					a.SchedWork, a.ArbWork, a.SwitchWork, a.CreditWork)
			}

			// Profiling is observation-only: the measurement must match
			// an unobserved Run bit-for-bit.
			plain := experiment.Run(spec, 0.3)
			stripped := r
			stripped.Observed = nil
			if stripped != plain {
				t.Errorf("profiled result diverged from plain Run:\nprofiled: %+v\nplain:    %+v", stripped, plain)
			}

			var prof struct {
				Radix int `json:"radix"`
				Nodes []struct {
					Ticks  []int64 `json:"ticks"`
					Active []int64 `json:"active"`
				} `json:"nodes"`
				Mem struct {
					Epochs int64 `json:"epochs"`
				} `json:"mem"`
			}
			if err := json.Unmarshal(export(t, obs, "profilePath", false, allEvents), &prof); err != nil {
				t.Fatalf("profile JSON invalid: %v", err)
			}
			if prof.Radix != 4 || len(prof.Nodes) != 16 {
				t.Fatalf("profile header wrong: radix=%d nodes=%d", prof.Radix, len(prof.Nodes))
			}
			if prof.Mem.Epochs == 0 {
				t.Fatalf("no memory epochs sampled")
			}

			csv := string(export(t, obs, "idleCsvPath", false, allEvents))
			lines := strings.Split(strings.TrimSpace(csv), "\n")
			if len(lines) != 5 || !strings.HasPrefix(lines[0], "#") {
				t.Fatalf("idle CSV is not # + 4 rows:\n%s", csv)
			}

			hot := obs.Prof.Hottest(3)
			if len(hot) != 3 {
				t.Fatalf("Hottest(3) returned %d entries", len(hot))
			}
			for i := 1; i < len(hot); i++ {
				if hot[i].ActiveFraction > hot[i-1].ActiveFraction {
					t.Fatalf("hot ranking out of order: %+v", hot)
				}
			}
			fields, text := held(t, obs, "profile")
			if s := fields[0].val.(string); !strings.Contains(s, "idle") {
				t.Fatalf("profile summary = %q", s)
			}
			if n := strings.Count(text, "\nprofile hot   router"); n != 3 {
				t.Fatalf("profile digest lists %d hot routers, want 3:\n%s", n, text)
			}
		})
	}
}

func TestTimeSeriesExport(t *testing.T) {
	r, obs := observe(t, smallSpec(experiment.FR6(experiment.FastControl, 5)), 0.3, metrics.Options{TimeSeries: true})

	// TimeSeries implies Metrics; read the registry total for the invariant.
	var reg struct {
		Nodes []struct {
			Ejected int64 `json:"ejected"`
		} `json:"nodes"`
	}
	if err := json.Unmarshal(export(t, obs, "metricsPath", false, allEvents), &reg); err != nil {
		t.Fatalf("TimeSeries did not imply Metrics: %v", err)
	}
	var total int64
	for _, n := range reg.Nodes {
		total += n.Ejected
	}

	csv := string(export(t, obs, "timeSeriesPath", false, allEvents))
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	header := strings.Split(lines[0], ",")
	ejCol := -1
	for i, h := range header {
		if h == "ejected" {
			ejCol = i
		}
	}
	if ejCol < 0 {
		t.Fatalf("no ejected column in %v", header)
	}
	var sum int64
	for _, line := range lines[1:] {
		v, err := strconv.ParseInt(strings.Split(line, ",")[ejCol], 10, 64)
		if err != nil {
			t.Fatalf("bad ejected cell in %q: %v", line, err)
		}
		sum += v
	}
	if total == 0 || sum != total {
		t.Fatalf("CSV ejected column sums to %d, registry total %d", sum, total)
	}
	// One row per epoch, partial final window included.
	wantRows := int(r.Cycles) / 64
	if r.Cycles%64 != 0 {
		wantRows++
	}
	if len(lines)-1 != wantRows {
		t.Fatalf("CSV has %d rows over %d cycles at epoch 64, want %d", len(lines)-1, r.Cycles, wantRows)
	}
	if fields, _ := held(t, obs, "timeseries"); fields[0].val != wantRows || fields[1].val != int64(0) {
		t.Fatalf("time series held %v/%v points/dropped, want %d/0", fields[0].val, fields[1].val, wantRows)
	}

	var doc struct {
		Epoch  int64 `json:"epoch"`
		Points []struct {
			Ejected int64 `json:"ejected"`
		} `json:"points"`
	}
	if err := json.Unmarshal(export(t, obs, "timeSeriesPath", true, allEvents), &doc); err != nil {
		t.Fatalf("time-series JSON invalid: %v", err)
	}
	if doc.Epoch != 64 || len(doc.Points) != wantRows {
		t.Fatalf("JSON export wrong: epoch=%d points=%d", doc.Epoch, len(doc.Points))
	}
}

// TestWaterfallRunObserved: arming Waterfall populates the Result's
// Observed.Waterfall with an exact stage partition, the exports render, and
// the shared fields stay bit-identical to an unobserved Run.
func TestWaterfallRunObserved(t *testing.T) {
	for _, tc := range fabrics {
		t.Run(tc.name, func(t *testing.T) {
			spec := smallSpec(tc.spec)
			spec.Check = true
			r, obs := observe(t, spec, 0.3, metrics.Options{Waterfall: true})
			if r.Observed == nil || r.Observed.Waterfall == nil || r.Observed.Activity != nil {
				t.Fatalf("sidecar of a waterfall-only run: %+v", r.Observed)
			}
			w := r.Observed.Waterfall
			if w.Packets == 0 || w.Total == 0 {
				t.Fatalf("no waterfall data: packets=%d total=%d", w.Packets, w.Total)
			}
			if sum := w.Queue + w.Reserve + w.Arb + w.Stall + w.Sched + w.Link + w.Drain; sum != w.Total {
				t.Fatalf("stage sum %d != total %d", sum, w.Total)
			}

			// Latency provenance is observation-only: the measurement
			// must match an unobserved Run bit-for-bit.
			plain := experiment.Run(spec, 0.3)
			stripped := r
			stripped.Observed = nil
			if stripped != plain {
				t.Errorf("waterfall result diverged from plain Run:\nwf:    %+v\nplain: %+v", stripped, plain)
			}

			var wf struct {
				Packets int64 `json:"packets"`
				Stages  []struct {
					Stage  string `json:"stage"`
					Cycles int64  `json:"cycles"`
				} `json:"stages"`
			}
			if err := json.Unmarshal(export(t, obs, "waterfallPath", false, allEvents), &wf); err != nil {
				t.Fatalf("waterfall JSON invalid: %v", err)
			}
			if wf.Packets != w.Packets || len(wf.Stages) != 7 {
				t.Fatalf("waterfall JSON header wrong: packets=%d stages=%d", wf.Packets, len(wf.Stages))
			}

			csv := string(export(t, obs, "waterfallPath", true, allEvents))
			lines := strings.Split(strings.TrimSpace(csv), "\n")
			if len(lines) != 8 || !strings.HasPrefix(lines[0], "stage,") {
				t.Fatalf("waterfall CSV is not header + 7 rows:\n%s", csv)
			}

			if _, s := held(t, obs, "waterfall"); !strings.Contains(s, "queue") || !strings.Contains(s, "drain") {
				t.Fatalf("waterfall summary = %q", s)
			}
		})
	}
}

// TestEveryArtefactWritesWhatItsFlagArms walks the artefact table: a run given
// one artefact's flag alone writes every one of its files, non-empty, in each
// format the artefact chooses by extension, and reports them on the
// artefact's text line, followed by what the collector held when the row
// reports that. A flag whose arm sets the wrong collector fails here.
func TestEveryArtefactWritesWhatItsFlagArms(t *testing.T) {
	for _, a := range artefacts(&allEvents, &smallRadix) {
		if a.flag == "" {
			continue
		}
		exts := []string{".out"}
		for _, o := range a.outs {
			if o.ext != "" {
				exts = append(exts, o.ext)
			}
		}
		for _, ext := range exts {
			t.Run(a.flag+ext, func(t *testing.T) {
				value := filepath.Join(t.TempDir(), a.flag+ext)
				var stdout, stderr bytes.Buffer
				args := append(append([]string{}, smokeArgs...), "-"+a.flag, value)
				if code := run(args, &stdout, &stderr); code != 0 {
					t.Fatalf("frsim %v: exit %d\n%s", args, code, stderr.String())
				}
				var paths []string
				for _, o := range a.outs {
					path := value + o.suffix
					if b, err := os.ReadFile(path); err != nil || len(b) == 0 {
						t.Errorf("%s: %d bytes, %v", path, len(b), err)
					}
					paths = append(paths, path)
				}
				report := stdout.String()
				line := fmt.Sprintf("\n%-14s%s", a.label, strings.Join(paths, ", "))
				at := strings.Index(report, line+"\n")
				if a.held != nil {
					at = strings.Index(report, line+" (")
				}
				if at < 0 {
					t.Errorf("no %q line reporting %s:\n%s", a.label, paths, report)
				}
			})
		}
	}
}
