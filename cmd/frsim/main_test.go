package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"frfc/internal/experiment"
)

// TestRejectsBadObservabilityFlags: negative epochs and capacities used to
// fall back silently to defaults; now they fail fast with a clear message.
func TestRejectsBadObservabilityFlags(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"metrics-epoch", []string{"-metrics-epoch", "-1"}, "-metrics-epoch must be >= 0"},
		{"trace-cap", []string{"-trace-cap", "-5"}, "-trace-cap must be >= 0"},
		{"timeseries-cap", []string{"-timeseries-cap", "-2"}, "-timeseries-cap must be >= 0"},
		{"load-zero", []string{"-load", "0"}, "-load must be in (0,2]"},
		{"load-high", []string{"-load", "2.5"}, "-load must be in (0,2]"},
		{"sample", []string{"-sample", "0"}, "-sample must be > 0"},
		{"warmup", []string{"-warmup", "-10"}, "-warmup must be > 0"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != 2 {
				t.Fatalf("exit = %d, want 2; stderr:\n%s", code, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.want) {
				t.Fatalf("stderr = %q, want substring %q", stderr.String(), tc.want)
			}
		})
	}
}

// TestRejectsUnknownConfigAndWiring: what the one resolver refuses, frsim
// refuses as sweep and the campaign service do — exit 2 and one line, where a
// bad routing name or a negative lead used to be a goroutine dump, and a lead
// past the horizon found no injection cycle.
func TestRejectsUnknownConfigAndWiring(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-config", "XYZ"}, `unknown config "XYZ" (FR6, FR13, VC8, VC16, VC32, WH, SAF, VCT, CS, FR6-leadN)`},
		{[]string{"-wiring", "bogus"}, `unknown wiring "bogus"`},
		{[]string{"-routing", "zz"}, `unknown routing "zz" (want xy, yx or table)`},
		{[]string{"-config", "VC8", "-routing", "table"}, `routing "table" is implemented for flit-reservation configs only, not VC8`},
		{[]string{"-config", "VC16", "-routing", "yx"}, `routing "yx" is implemented for flit-reservation configs only, not VC16`},
		{[]string{"-config", "FR6-lead-3", "-wiring", "leading"}, `bad lead in "FR6-lead-3"`},
		{[]string{"-config", "FR6-lead2x"}, `bad lead in "FR6-lead2x"`},
		{[]string{"-config", "FR6-lead33", "-wiring", "leading"}, `lead in "FR6-lead33" exceeds the 32-cycle reservation horizon`},
		{[]string{"-config", "FR6-lead9223372036854775807", "-wiring", "leading"}, `lead in "FR6-lead9223372036854775807" exceeds the 32-cycle reservation horizon`},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit = %d, want 2; stderr:\n%s", tc.args, code, stderr.String())
		}
		if !strings.Contains(stderr.String(), tc.want) || strings.Count(stderr.String(), "\n") != 1 {
			t.Errorf("%v: stderr = %q, want one line containing %q", tc.args, stderr.String(), tc.want)
		}
	}
}

// TestNamedConfigsResolveThroughTheGrid: frsim takes the whole sweep
// vocabulary — the baselines of the lineage and FR6-leadN by name, under
// leading control — and keeps the config's name under -radix and -pattern;
// a structural knob makes the run custom.
func TestNamedConfigsResolveThroughTheGrid(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-config", "WH"}, "WH8"},
		{[]string{"-config", "CS"}, "CS"},
		{[]string{"-config", "FR6-lead2", "-wiring", "leading"}, "FR6-lead2"},
		{[]string{"-config", "FR6", "-wiring", "leading"}, "FR6-lead1"},
		{[]string{"-config", "VC8", "-pattern", "transpose"}, "VC8"},
		{[]string{"-config", "FR13", "-buffers", "10"}, "custom"},
	} {
		var stdout, stderr bytes.Buffer
		args := append([]string{"-radix", "4", "-load", "0.2", "-sample", "60", "-warmup", "100", "-json"}, tc.args...)
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("%v: exit = %d; stderr:\n%s", tc.args, code, stderr.String())
		}
		var sum struct {
			Config string `json:"config"`
		}
		if err := json.Unmarshal(stdout.Bytes(), &sum); err != nil || sum.Config != tc.want {
			t.Errorf("%v: config = %q (%v), want %q", tc.args, sum.Config, err, tc.want)
		}
	}
}

// TestProfileArtifacts drives a tiny profiled run end to end: the JSON
// summary carries the result's Observed.Activity and artifact paths, and the
// written profile JSON and idle-fraction CSV parse.
func TestProfileArtifacts(t *testing.T) {
	dir := t.TempDir()
	profPath := filepath.Join(dir, "profile.json")
	idlePath := filepath.Join(dir, "idle.csv")
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-config", "FR6", "-radix", "4", "-load", "0.3",
		"-sample", "150", "-warmup", "300",
		"-profile", profPath, "-idle-csv", idlePath, "-json",
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit = %d; stderr:\n%s", code, stderr.String())
	}
	var sum struct {
		Result         experiment.Result `json:"result"`
		ProfilePath    string            `json:"profilePath"`
		IdleCSVPath    string            `json:"idleCsvPath"`
		ProfileSummary string            `json:"profileSummary"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &sum); err != nil {
		t.Fatalf("summary JSON: %v\n%s", err, stdout.String())
	}
	if o := sum.Result.Observed; o == nil || o.Activity == nil || o.Waterfall != nil {
		t.Fatalf("sidecar of a profiled-only run: %+v\n%s", o, stdout.String())
	}
	if a := sum.Result.Observed.Activity; a.Ticks == 0 || a.SchedWork == 0 {
		t.Fatalf("profile summary empty: %+v", *a)
	}
	if sum.ProfilePath != profPath || sum.IdleCSVPath != idlePath {
		t.Fatalf("artifact paths wrong: %+v", sum)
	}
	if !strings.Contains(sum.ProfileSummary, "idle") {
		t.Fatalf("profileSummary = %q", sum.ProfileSummary)
	}

	raw, err := os.ReadFile(profPath)
	if err != nil {
		t.Fatal(err)
	}
	var prof struct {
		Radix int               `json:"radix"`
		Nodes []json.RawMessage `json:"nodes"`
	}
	if err := json.Unmarshal(raw, &prof); err != nil {
		t.Fatalf("profile JSON: %v", err)
	}
	if prof.Radix != 4 || len(prof.Nodes) != 16 {
		t.Fatalf("profile header: radix=%d nodes=%d", prof.Radix, len(prof.Nodes))
	}
	csv, err := os.ReadFile(idlePath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(csv)), "\n")
	if len(lines) != 5 || !strings.HasPrefix(lines[0], "#") {
		t.Fatalf("idle CSV shape:\n%s", csv)
	}

	// The text renderer prints the profile summary and hottest routers.
	stdout.Reset()
	code = run([]string{
		"-config", "FR6", "-radix", "4", "-load", "0.3",
		"-sample", "150", "-warmup", "300",
		"-idle-csv", filepath.Join(dir, "idle2.csv"),
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit = %d; stderr:\n%s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "profile hot   router") {
		t.Fatalf("text output missing hot-router lines:\n%s", stdout.String())
	}
}

// TestWaterfallArtifacts: -waterfall populates Observed.Waterfall with an
// exact stage partition, writes the JSON artifact, and the text renderer
// prints the breakdown line.
func TestWaterfallArtifacts(t *testing.T) {
	dir := t.TempDir()
	wfPath := filepath.Join(dir, "waterfall.json")
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-config", "FR6", "-radix", "4", "-load", "0.3",
		"-sample", "150", "-warmup", "300", "-check",
		"-waterfall", wfPath, "-json",
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit = %d; stderr:\n%s", code, stderr.String())
	}
	var sum struct {
		Result           experiment.Result `json:"result"`
		WaterfallPath    string            `json:"waterfallPath"`
		WaterfallSummary string            `json:"waterfallSummary"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &sum); err != nil {
		t.Fatalf("summary JSON: %v\n%s", err, stdout.String())
	}
	if o := sum.Result.Observed; o == nil || o.Waterfall == nil || o.Activity != nil {
		t.Fatalf("sidecar of a waterfall-only run: %+v\n%s", o, stdout.String())
	}
	w := sum.Result.Observed.Waterfall
	if w.Packets == 0 || w.Total == 0 {
		t.Fatalf("waterfall summary empty: %+v", *w)
	}
	if s := w.Queue + w.Reserve + w.Arb + w.Stall + w.Sched + w.Link + w.Drain; s != w.Total {
		t.Fatalf("stage sum %d != total %d", s, w.Total)
	}
	if sum.WaterfallPath != wfPath || !strings.Contains(sum.WaterfallSummary, "queue") {
		t.Fatalf("artifact fields wrong: path=%q summary=%q", sum.WaterfallPath, sum.WaterfallSummary)
	}

	raw, err := os.ReadFile(wfPath)
	if err != nil {
		t.Fatal(err)
	}
	var wf struct {
		Packets int64             `json:"packets"`
		Stages  []json.RawMessage `json:"stages"`
	}
	if err := json.Unmarshal(raw, &wf); err != nil {
		t.Fatalf("waterfall JSON: %v", err)
	}
	if wf.Packets != w.Packets || len(wf.Stages) != 7 {
		t.Fatalf("waterfall artifact: packets=%d stages=%d", wf.Packets, len(wf.Stages))
	}

	// CSV artifact via extension, and the text renderer's breakdown line.
	csvPath := filepath.Join(dir, "waterfall.csv")
	stdout.Reset()
	stderr.Reset()
	code = run([]string{
		"-config", "VC8", "-radix", "4", "-load", "0.3",
		"-sample", "150", "-warmup", "300",
		"-waterfall", csvPath,
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit = %d; stderr:\n%s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "waterfall     waterfall:") {
		t.Fatalf("text output missing waterfall line:\n%s", stdout.String())
	}
	csv, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Split(strings.TrimSpace(string(csv)), "\n"); len(lines) != 8 {
		t.Fatalf("waterfall CSV shape (%d lines):\n%s", len(lines), csv)
	}
}

// TestScenarioRunDeliversWholeSample: a link severed mid-run and repaired
// later, under fault-aware table routing, end-to-end retry and the per-cycle
// invariant checker — the sample is fully delivered, nothing abandoned or
// unreachable. (The CI reliability smoke used to check this from a shell step.)
func TestScenarioRunDeliversWholeSample(t *testing.T) {
	const scenario = "down 5-6 @1200; up 5-6 @2400"
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-config", "FR6", "-radix", "4", "-load", "0.3",
		"-sample", "500", "-warmup", "1000", "-seed", "7",
		"-retry", "8", "-check", "-scenario", scenario, "-json",
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit = %d; stderr:\n%s", code, stderr.String())
	}
	var sum struct {
		Scenario string `json:"scenario"`
		Result   struct {
			SampledDelivered, SampleSize         int
			DeliveredFraction                    float64
			AbandonedPackets, UnreachablePackets int64
		} `json:"result"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &sum); err != nil {
		t.Fatalf("summary JSON: %v\n%s", err, stdout.String())
	}
	r := sum.Result
	if sum.Scenario != scenario || r.SampleSize == 0 || r.SampledDelivered != r.SampleSize ||
		r.DeliveredFraction != 1 || r.AbandonedPackets != 0 || r.UnreachablePackets != 0 {
		t.Fatalf("scenario run degraded: %+v", sum)
	}
}

// TestRejectsByName: the values sweep refuses by name frsim refuses the same
// way — exit 2, nothing on stdout, one stderr line naming the flag and the
// value — where an out-of-range -chaos, -ber or -radix used to die with a
// goroutine dump, a negative -ber or -retry and a -lead nothing reads were
// ignored, and -pktlen 0 ran 5-flit packets under a banner that said 0. The
// structural knobs likewise: a zero ran the preset's value under the "custom"
// label, a negative buffer count or a horizon the data link outruns died in
// core.Config's checks, and a pool past what a reservation table's lanes count
// is refused before it gets there, as are a packet length and a retry budget
// past what a flit's 32-bit fields count, which would wrap. So are the fault,
// chaos, retry and end-to-end options and the structural knobs on a fabric
// without them (a knob used to be dropped in silence), the bit-error options
// on one with no bit-error model, which used to die in a goroutine dump or run
// as if unset (a bit error on SAF2 reported "0 flits corrupted" as measured),
// and a control lead under fast wiring, which ran leading wires under a fast
// label.
func TestRejectsByName(t *testing.T) {
	for _, args := range [][]string{
		{"-chaos", "1.5"}, {"-chaos", "-0.5"}, {"-chaos-seed", "9"}, {"-chaos", "0", "-chaos-seed", "9"},
		{"-ber", "2"}, {"-ber", "1"}, {"-ber", "-0.1"}, {"-crc-bits", "100"},
		{"-radix", "1"}, {"-radix", "-4"}, {"-pattern", "zz"},
		{"-pktlen", "0"}, {"-pktlen", "-2"}, {"-pktlen", "3000000000"},
		{"-retry", "-1"}, {"-retry", "3000000000"},
		{"-config", "FR6-lead2", "-wiring", "fast"}, {"-config", "FR6-lead9", "-wiring", "leading", "-horizon", "8"},
		{"-buffers", "0"}, {"-buffers", "-3"}, {"-buffers", "127"},
		{"-ctrlvcs", "0"}, {"-leads", "0"},
		{"-horizon", "0"}, {"-horizon", "4"}, {"-wiring", "leading", "-horizon", "1"},
		{"-buffers", "4", "-leads", "4"},
		{"-config", "VC8", "-vcs", "0"}, {"-config", "VC8", "-bufpervc", "0"},
		{"-config", "VC8", "-buffers", "8"}, {"-config", "FR6", "-vcs", "4"}, {"-config", "SAF", "-horizon", "16"},
		{"-config", "VC8", "-chaos", "0.5"}, {"-config", "VC8", "-scenario", "down 5-6 @100"},
		{"-config", "VC8", "-scenario", "kill 5 @100"}, {"-config", "WH", "-scenario", "down 5-6 @100"},
		{"-config", "VC8", "-retry", "8"}, {"-config", "VC16", "-retry", "2"}, {"-config", "VC8", "-e2e-check=true"},
		{"-config", "SAF", "-ber", "0.001"}, {"-config", "VCT", "-ber", "0.001"}, {"-config", "CS", "-crc-bits", "8"},
		{"-config", "WH", "-ber", "0.001"},
	} {
		flag, value := args[len(args)-2], args[len(args)-1]
		if f, v, ok := strings.Cut(value, "="); ok && strings.HasPrefix(f, "-") {
			flag, value = f, v // a boolean flag, set as -name=value
		}
		refusedByName(t, args, flag, value)
	}
	// The spellings frsim no longer has are refused the same way, naming the
	// gone flag and what took its place, where they printed the usage text: a
	// knob needs no -custom, and the lead is spelled FR6-leadN.
	for _, args := range [][]string{{"-custom", "-pktlen", "0"}, {"-custom", "-pktlen", "3000000000"}} {
		refusedByName(t, args, "-custom", "-buffers")
	}
	for _, lead := range []string{"33", "9223372036854775807"} {
		refusedByName(t, []string{"-wiring", "leading", "-lead", lead}, "-lead", "-config FR6-lead"+lead)
	}
}

// refusedByName runs frsim with args as a subtest named for them and wants it
// refused: exit 2, nothing on stdout, and one stderr line naming flag and
// value.
func refusedByName(t *testing.T, args []string, flag, value string) {
	t.Run(strings.Join(args, " "), func(t *testing.T) {
		var stdout, stderr bytes.Buffer
		small := []string{"-load", "0.2", "-sample", "60", "-warmup", "100"}
		if code := run(append(small, args...), &stdout, &stderr); code != 2 {
			t.Errorf("exit %d, want 2", code)
		}
		if stdout.Len() != 0 {
			t.Errorf("printed before refusing:\n%s", stdout.String())
		}
		msg := stderr.String()
		if !strings.HasPrefix(msg, "frsim: ") || strings.Count(msg, "\n") != 1 || strings.Contains(msg, "goroutine") ||
			!strings.Contains(msg, flag+" ") || !strings.Contains(msg, value) {
			t.Errorf("stderr = %q, want one line naming %s and %s", msg, flag, value)
		}
	})
}

// textReport runs frsim and returns its text report split after the config
// line.
func textReport(t *testing.T, args ...string) (config, rest string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("frsim %v: exit %d\n%s", args, code, stderr.String())
	}
	config, rest, _ = strings.Cut(stdout.String(), "\n")
	return config, rest
}

// TestCustomIsAPresetWithFields: a structural knob sets its field on the
// config -config names, so a preset with another preset's fields set prints
// that preset's text report byte for byte, and a knob at the config's own
// value prints the config's; only the config line, which says custom, differs.
func TestCustomIsAPresetWithFields(t *testing.T) {
	small := []string{"-radix", "4", "-load", "0.3", "-sample", "200", "-warmup", "300", "-seed", "7"}
	for _, tc := range []struct {
		name          string
		named, custom []string
	}{
		{"FR6", []string{"-config", "FR6"}, []string{"-config", "FR6", "-buffers", "6"}},
		{"FR13", []string{"-config", "FR13"}, []string{"-config", "FR6", "-buffers", "13", "-ctrlvcs", "4"}},
		{"VC8", []string{"-config", "VC8"}, []string{"-config", "VC16", "-vcs", "2"}},
		{"VC32", []string{"-config", "VC32"}, []string{"-config", "VC16", "-vcs", "8"}},
		{"FR6-lead2", []string{"-config", "FR6-lead2", "-wiring", "leading"}, []string{"-config", "FR6-lead2", "-wiring", "leading", "-horizon", "32"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			namedConfig, named := textReport(t, append(tc.named, small...)...)
			customConfig, custom := textReport(t, append(tc.custom, small...)...)
			if !strings.HasPrefix(namedConfig, "config        "+tc.name+" (") || !strings.HasPrefix(customConfig, "config        custom (") {
				t.Errorf("config lines %q and %q", namedConfig, customConfig)
			}
			if custom != named {
				t.Errorf("%v differs from -config %s:\n--- custom\n%s--- named\n%s", tc.custom, tc.name, custom, named)
			}
		})
	}
}

// TestCustomDebitsItsOwnHorizon: the effective load a run with -horizon
// reports is debited by Table 2's penalty for the configuration that ran — 7
// extra bits a flit at a 128-cycle horizon (2.73 %), 3 at 8 (1.17 %) — not by
// FR6's 5 (1.95 %).
func TestCustomDebitsItsOwnHorizon(t *testing.T) {
	for _, tc := range []struct{ horizon, effective string }{{"128", "77.8"}, {"32", "78.4"}, {"8", "79.1"}} {
		_, rest := textReport(t, "-config", "FR6", "-horizon", tc.horizon, "-radix", "4", "-load", "0.8", "-sample", "200", "-warmup", "300")
		want := "offered load  80.0% of capacity (effective " + tc.effective + "% after bandwidth overhead)\n"
		if !strings.HasPrefix(rest, want) {
			t.Errorf("-horizon %s: report starts %q, want %q", tc.horizon, rest[:min(len(rest), len(want))], want)
		}
	}
}
