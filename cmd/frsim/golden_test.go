package main

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/ from the current output")

// smokeArgs is the CI traced-smoke run: FR6 on a 4x4 mesh, small enough for
// every test run, seeded so every artefact is a function of the flags alone.
var smokeArgs = []string{"-config", "FR6", "-radix", "4", "-load", "0.3", "-sample", "200", "-warmup", "300", "-seed", "7"}

// smokeRun drives frsim over smokeArgs plus extra and returns its stdout.
func smokeRun(t *testing.T, extra ...string) []byte {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args := append(append([]string{}, smokeArgs...), extra...)
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("frsim %v: exit %d\n%s", args, code, stderr.String())
	}
	return stdout.Bytes()
}

// profileMem matches the one host-dependent object of the profile JSON: the
// allocation and GC deltas sampled from the Go runtime.
var profileMem = regexp.MustCompile(`(?s)"mem": \{.*?\}`)

// TestArtifactsGolden pins every file artefact of the traced-smoke run byte
// for byte: the registry JSON, both heatmaps, the profile JSON (its host
// memory object masked), the idle heatmap, and the waterfall and time series
// in both of their formats. The other tests check that these files parse and
// hold plausible values; these hold the bytes, so a refactor of a collector or
// an exporter that moves one fails here. Regenerate with
// `go test ./cmd/frsim -run TestArtifactsGolden -update` after a deliberate
// change to the simulator or to a format.
func TestArtifactsGolden(t *testing.T) {
	dir := t.TempDir()
	in := func(name string) string { return filepath.Join(dir, name) }
	smokeRun(t, "-metrics", in("metrics.json"), "-heatmap", in("heat"),
		"-profile", in("profile.json"), "-idle-csv", in("idle.csv"),
		"-waterfall", in("waterfall.json"), "-timeseries", in("timeseries.csv"))
	// The second format of the two collectors that choose one by extension.
	smokeRun(t, "-waterfall", in("waterfall.csv"), "-timeseries", in("timeseries.json"))

	for _, name := range []string{
		"metrics.json", "heat-occupancy.csv", "heat-utilization.csv", "profile.json", "idle.csv",
		"waterfall.json", "waterfall.csv", "timeseries.csv", "timeseries.json",
	} {
		t.Run(name, func(t *testing.T) {
			got, err := os.ReadFile(in(name))
			if err != nil {
				t.Fatal(err)
			}
			if name == "profile.json" {
				got = profileMem.ReplaceAll(got, []byte(`"mem": {}`))
			}
			golden := filepath.Join("testdata", name)
			if *update {
				if err := os.WriteFile(golden, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s differs from %s:\n--- got\n%s--- want\n%s", name, golden, got, want)
			}
		})
	}
}

// TestSmokeArtifactsAgree checks what the CI smoke steps used to check in
// inline Python, over the same run: the flit trace is well-formed Chrome
// trace-event JSON, the registry describes the mesh that ran and saw traffic,
// the -json summary names the files it wrote, and the time series accounts for
// every ejected flit of the registry, one row per point it reports.
func TestSmokeArtifactsAgree(t *testing.T) {
	dir := t.TempDir()
	tracePath, metricsPath, seriesPath := filepath.Join(dir, "trace.json"), filepath.Join(dir, "metrics.json"), filepath.Join(dir, "series.csv")
	stdout := smokeRun(t, "-trace", tracePath, "-metrics", metricsPath, "-timeseries", seriesPath, "-json")
	load := func(path string, v any) {
		t.Helper()
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, v); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
	}

	var trace struct {
		TraceEvents []struct {
			Ph   string `json:"ph"`
			Pid  *int   `json:"pid"`
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	load(tracePath, &trace)
	if len(trace.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}
	for i, ev := range trace.TraceEvents {
		if (ev.Ph != "M" && ev.Ph != "i" && ev.Ph != "X") || ev.Pid == nil || ev.Name == "" {
			t.Fatalf("trace event %d malformed: ph %q, pid %v, name %q", i, ev.Ph, ev.Pid, ev.Name)
		}
	}

	var reg struct {
		Radix int `json:"radix"`
		Nodes []struct {
			Injected int64 `json:"injected"`
			Ejected  int64 `json:"ejected"`
		} `json:"nodes"`
	}
	load(metricsPath, &reg)
	var injected, ejected int64
	for _, n := range reg.Nodes {
		injected += n.Injected
		ejected += n.Ejected
	}
	if reg.Radix != 4 || len(reg.Nodes) != 16 || injected == 0 {
		t.Fatalf("registry: radix %d, %d nodes, %d flits injected", reg.Radix, len(reg.Nodes), injected)
	}

	var sum struct {
		TracePath        string `json:"tracePath"`
		MetricsPath      string `json:"metricsPath"`
		TimeSeriesPath   string `json:"timeSeriesPath"`
		TimeSeriesPoints int    `json:"timeSeriesPoints"`
	}
	if err := json.Unmarshal(stdout, &sum); err != nil {
		t.Fatalf("summary JSON: %v\n%s", err, stdout)
	}
	if sum.TracePath != tracePath || sum.MetricsPath != metricsPath || sum.TimeSeriesPath != seriesPath {
		t.Fatalf("summary does not name the files it wrote: %+v", sum)
	}

	f, err := os.Open(seriesPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil || len(rows) < 2 {
		t.Fatalf("time series: %d rows, %v", len(rows), err)
	}
	col := slices.Index(rows[0], "ejected")
	if col < 0 {
		t.Fatalf("time series has no ejected column: %v", rows[0])
	}
	var seriesEjected int64
	for _, row := range rows[1:] {
		n, err := strconv.ParseInt(row[col], 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		seriesEjected += n
	}
	if seriesEjected != ejected || ejected == 0 {
		t.Fatalf("series ejected sums to %d, registry total %d", seriesEjected, ejected)
	}
	if sum.TimeSeriesPoints != len(rows)-1 {
		t.Fatalf("summary reports %d points, the file holds %d rows", sum.TimeSeriesPoints, len(rows)-1)
	}
}

// summaryMem matches the host-dependent tail of the one-line profile summary
// (bytes allocated per epoch, GC count), which both reports quote.
var summaryMem = regexp.MustCompile(`mem \d+ B/epoch over \d+ epochs \(\d+ GCs\)`)

// TestTraceNamesRoutersByCoordinate: a trace armed alone names each router by
// its mesh coordinates, as one written beside -metrics does. The radix is the
// run's, not the counter registry's, which only -metrics arms.
func TestTraceNamesRoutersByCoordinate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	smokeRun(t, "-trace", path)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := `"name":"router 1 (1,0)"`; !bytes.Contains(raw, []byte(want)) {
		t.Fatalf("the trace of a -radix %s run names no %s", smokeArgs[3], want)
	}
}

// TestReportsGolden pins what frsim prints about the traced-smoke run with
// every artefact flag set, in both forms: the text report and the -json
// summary, paths relative to the directory written to (the two capacities are
// small enough to overflow, so the dropped counts are pinned too). Together with
// TestArtifactsGolden this is everything a run emits, so a change to how flags
// are bound, artefacts written or the report assembled that moves a byte of
// either fails here.
func TestReportsGolden(t *testing.T) {
	for name, form := range map[string][]string{"report.txt": nil, "summary.json": {"-json"}} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			in := func(name string) string { return filepath.Join(dir, name) }
			got := smokeRun(t, append(form, "-metrics", in("metrics.json"), "-heatmap", in("heat"),
				"-profile", in("profile.json"), "-idle-csv", in("idle.csv"), "-waterfall", in("waterfall.json"),
				"-timeseries", in("timeseries.csv"), "-timeseries-cap", "4", "-trace", in("trace.json"), "-trace-cap", "1000")...)
			got = bytes.ReplaceAll(got, []byte(dir+string(filepath.Separator)), nil)
			got = summaryMem.ReplaceAll(got, []byte("mem (host)"))
			golden := filepath.Join("testdata", name)
			if *update {
				if err := os.WriteFile(golden, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s differs from %s:\n--- got\n%s--- want\n%s", name, golden, got, want)
			}
		})
	}
}
