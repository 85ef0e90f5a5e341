package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// storeLine builds one JSONL store row the way internal/harness writes them:
// lowercase envelope keys, result object with Go field names, the observer
// summaries in its Observed sidecar under their own lowercase keys.
func storeLine(hash, spec string, load float64, result string) string {
	return fmt.Sprintf(`{"hash":%q,"spec":%q,"load":%g,"result":%s}`, hash, spec, load, result)
}

func writeFixtures(t *testing.T, dir string) (store string) {
	t.Helper()
	store = filepath.Join(dir, "campaign.jsonl")
	lines := []string{
		// Deliberately out of order: the report must sort by (spec, load).
		storeLine("h3", "VC8", 0.4,
			`{"AvgLatency":31.25,"CI95":1.2,"BatchCI95":0.8,"Batches":10,"P99":74,"AcceptedLoad":0.39,"SampledDelivered":900,"SampleSize":900,"Observed":{"Activity":{"ticks":4000,"activeTicks":1000,"idleFraction":0.75}}}`),
		storeLine("h1", "FR6", 0.2,
			`{"AvgLatency":22.5,"CI95":0.9,"BatchCI95":0.5,"Batches":12,"P99":41,"AcceptedLoad":0.2,"SampledDelivered":800,"SampleSize":800,"Observed":{"Activity":{"ticks":5000,"activeTicks":2000,"idleFraction":0.6,"schedWork":100,"arbWork":300,"switchWork":500,"creditWork":100}}}`),
		storeLine("h2", "FR6", 0.6,
			`{"AvgLatency":48.75,"CI95":2.1,"Batches":0,"P99":120,"AcceptedLoad":0.55,"Saturated":true,"SampledDelivered":700,"SampleSize":800,"DroppedFlits":12,"RetriedPackets":3,"DeliveredFraction":0.875}`),
		`not json at all`,
		// A later line for an existing hash supersedes the earlier one.
		storeLine("h1", "FR6", 0.2,
			`{"AvgLatency":22.51,"CI95":0.9,"BatchCI95":0.51,"Batches":12,"P99":42,"AcceptedLoad":0.2,"SampledDelivered":800,"SampleSize":800,"Observed":{"Activity":{"ticks":5000,"activeTicks":2000,"idleFraction":0.6,"schedWork":100,"arbWork":300,"switchWork":500,"creditWork":100},"Waterfall":{"packets":800,"total":18000,"queue":400,"reserve":800,"arb":1600,"stall":1200,"sched":2000,"link":10000,"drain":2000}}}`),
	}
	if err := os.WriteFile(store, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return store
}

// TestReportDeterministicAndComplete regenerates the report twice and checks
// it is byte-identical, with the cross-substrate table, fault columns,
// waterfall and profiling summary all present.
func TestReportDeterministicAndComplete(t *testing.T) {
	dir := t.TempDir()
	store := writeFixtures(t, dir)
	out1 := filepath.Join(dir, "BENCHMARK.md")
	out2 := filepath.Join(dir, "BENCHMARK2.md")

	// The fixture carries a deliberately undecodable line, so these runs
	// need -lenient; strict mode is covered by TestReportStrictMalformed.
	args := []string{"-lenient"}
	var stdout, stderr bytes.Buffer
	if code := run(append(args, "-out", out1, store), &stdout, &stderr); code != 0 {
		t.Fatalf("exit = %d; stderr:\n%s", code, stderr.String())
	}
	if code := run(append(args, "-out", out2, store), &stdout, &stderr); code != 0 {
		t.Fatalf("second exit = %d; stderr:\n%s", code, stderr.String())
	}
	a, err := os.ReadFile(out1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(out2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("report not byte-identical across reruns")
	}
	got := string(a)

	// Cross-substrate table: sorted by spec then load, superseding row kept,
	// undecodable line counted.
	iFR2 := strings.Index(got, "| FR6 | 20.0 | 22.51 | 0.51 |")
	iFR6 := strings.Index(got, "| FR6 | 60.0 | 48.75 | 2.10 |")
	iVC := strings.Index(got, "| VC8 | 40.0 | 31.25 | 0.80 |")
	if iFR2 < 0 || iFR6 < 0 || iVC < 0 || !(iFR2 < iFR6 && iFR6 < iVC) {
		t.Fatalf("cross-substrate rows missing or misordered:\n%s", got)
	}
	for _, want := range []string{
		"3 points (1 undecodable lines skipped)",
		"| yes |", // saturated column on the 60% row
		"### Fault and integrity delivery",
		"| FR6 | 60.0 | 87.5 | 0 | 12 | 3 |",
		"### Where the cycles go (latency waterfall)",
		"| FR6 | 20.0 | 0.50 | 1.00 | 2.00 | 1.50 | 2.50 | 12.50 | 2.50 | 22.50 |",
		"### Self-profiling",
		"2 of 3 points carried activity accounting",
		"Idle component ticks: 66.7% (3000 active of 9000 total)",
		"sched 10.0%, arb 30.0%, switch 50.0%, credit 10.0%",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("report missing %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "h1") || strings.Contains(got, "h2") {
		t.Fatalf("hashes leaked into the report:\n%s", got)
	}
}

func TestReportStdoutAndErrors(t *testing.T) {
	dir := t.TempDir()
	store := writeFixtures(t, dir)

	var stdout, stderr bytes.Buffer
	if code := run([]string{"-lenient", store}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit = %d; stderr:\n%s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "# Benchmark Report") {
		t.Fatalf("stdout missing report:\n%s", stdout.String())
	}

	stderr.Reset()
	if code := run(nil, &stdout, &stderr); code != 2 {
		t.Fatalf("no-input exit = %d", code)
	}
	if !strings.Contains(stderr.String(), "nothing to report") {
		t.Fatalf("stderr = %q", stderr.String())
	}

	stderr.Reset()
	if code := run([]string{filepath.Join(dir, "missing.jsonl")}, &stdout, &stderr); code != 2 {
		t.Fatalf("missing-store exit = %d", code)
	}

	// The benchmark-log section and its three flags are gone: bench/ is the
	// one benchmark system.
	for _, flag := range []string{"-bench", "-baseline", "-bench-json"} {
		if code := run([]string{flag, "x", store}, &stdout, &stderr); code != 2 {
			t.Fatalf("%s exit = %d, want 2", flag, code)
		}
	}
}

// TestReportStrictMalformed checks the default strict mode: a store with an
// undecodable line fails with a non-zero exit naming the file and the
// 1-based line number, and no report is written.
func TestReportStrictMalformed(t *testing.T) {
	dir := t.TempDir()
	store := writeFixtures(t, dir) // bad line is physical line 4
	out := filepath.Join(dir, "BENCHMARK.md")

	var stdout, stderr bytes.Buffer
	if code := run([]string{"-out", out, store}, &stdout, &stderr); code != 2 {
		t.Fatalf("strict exit = %d, want 2; stderr:\n%s", code, stderr.String())
	}
	want := fmt.Sprintf("%s:4: malformed record", store)
	if !strings.Contains(stderr.String(), want) {
		t.Fatalf("stderr = %q, want it to contain %q", stderr.String(), want)
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Fatalf("strict failure still wrote %s", out)
	}

	// A record that decodes but lacks the hash key is malformed too.
	noHash := filepath.Join(dir, "nohash.jsonl")
	if err := os.WriteFile(noHash, []byte(`{"spec":"FR6","load":0.2}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	stderr.Reset()
	if code := run([]string{noHash}, &stdout, &stderr); code != 2 {
		t.Fatalf("missing-hash exit = %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), noHash+":1: malformed record: missing hash") {
		t.Fatalf("stderr = %q", stderr.String())
	}
}
