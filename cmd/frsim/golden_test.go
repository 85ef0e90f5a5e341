package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
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
