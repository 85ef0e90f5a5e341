package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"frfc/internal/harness"
)

// sweepArgs is a small, fast grid shared by the tests.
func sweepArgs(extra ...string) []string {
	base := []string{
		"-configs", "FR6,VC8", "-from", "0.2", "-to", "0.4", "-step", "0.2",
		"-sample", "150", "-warmup", "300",
	}
	return append(base, extra...)
}

// TestWorkersByteIdenticalOutput is the acceptance criterion: the sweep's
// stdout must be byte-identical for -workers=1 and -workers=4, in both table
// and CSV form.
func TestWorkersByteIdenticalOutput(t *testing.T) {
	for _, mode := range [][]string{nil, {"-csv"}} {
		var ref []byte
		for _, workers := range []string{"1", "4"} {
			var stdout, stderr bytes.Buffer
			args := sweepArgs("-workers", workers)
			args = append(args, mode...)
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("workers=%s exit %d: %s", workers, code, stderr.String())
			}
			if ref == nil {
				ref = stdout.Bytes()
				continue
			}
			if !bytes.Equal(stdout.Bytes(), ref) {
				t.Errorf("mode %v: -workers=4 output differs from -workers=1:\n--- workers=1\n%s--- workers=4\n%s",
					mode, ref, stdout.Bytes())
			}
		}
	}
}

// syncBuffer is a bytes.Buffer safe for one writer and one reader goroutine;
// the status test tails stderr while run() is still writing to it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestStatusServerByteIdenticalOutput is the acceptance criterion: a sweep run
// with -status-addr must print byte-identical results and write a
// byte-identical store to one without, and its /status and /metrics endpoints
// must answer while the campaign runs.
func TestStatusServerByteIdenticalOutput(t *testing.T) {
	dir := t.TempDir()
	bareStore, servedStore := filepath.Join(dir, "bare.jsonl"), filepath.Join(dir, "served.jsonl")

	var bare, bareErr bytes.Buffer
	if code := run(sweepArgs("-workers", "1", "-out", bareStore), &bare, &bareErr); code != 0 {
		t.Fatalf("bare run exit %d: %s", code, bareErr.String())
	}

	var served bytes.Buffer
	stderr := &syncBuffer{}
	done := make(chan int, 1)
	go func() {
		done <- run(sweepArgs("-workers", "1", "-out", servedStore, "-status-addr", "127.0.0.1:0"), &served, stderr)
	}()

	// The command announces the bound address on stderr before the campaign
	// starts; tail stderr until it appears.
	var addr string
	deadline := time.Now().Add(10 * time.Second)
	for addr == "" {
		s := stderr.String()
		if i := strings.Index(s, "status on http://"); i >= 0 {
			rest := s[i+len("status on http://"):]
			if j := strings.Index(rest, "/status"); j >= 0 {
				addr = rest[:j]
			}
		}
		if addr == "" {
			if time.Now().After(deadline) {
				t.Fatalf("status address never announced; stderr: %s", stderr.String())
			}
			time.Sleep(time.Millisecond)
		}
	}

	// Scrape both endpoints while the campaign is in flight. If the campaign
	// outruns the scrape on a fast machine the listener is already closed;
	// the byte-identical check below still runs either way, and the
	// endpoints themselves are covered by the library tests.
	scraped := false
	finished := false
	for !scraped && !finished {
		select {
		case code := <-done:
			if code != 0 {
				t.Fatalf("served run exit %d: %s", code, stderr.String())
			}
			finished = true
		default:
			resp, err := http.Get("http://" + addr + "/status")
			if err != nil {
				time.Sleep(time.Millisecond)
				continue
			}
			body, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			if rerr != nil {
				t.Fatal(rerr)
			}
			var snap map[string]any
			if err := json.Unmarshal(body, &snap); err != nil {
				t.Fatalf("/status not JSON mid-campaign: %v\n%s", err, body)
			}
			mresp, merr := http.Get("http://" + addr + "/metrics")
			if merr == nil {
				mbody, _ := io.ReadAll(mresp.Body)
				mresp.Body.Close()
				if !strings.Contains(string(mbody), "frfc_up 1") {
					t.Fatalf("/metrics invalid mid-campaign:\n%s", mbody)
				}
			}
			scraped = true
		}
	}
	if !finished {
		if code := <-done; code != 0 {
			t.Fatalf("served run exit %d: %s", code, stderr.String())
		}
	}
	if !scraped {
		t.Logf("campaign finished before a scrape landed; skipped endpoint checks")
	}

	if !bytes.Equal(bare.Bytes(), served.Bytes()) {
		t.Errorf("-status-addr changed sweep output:\n--- bare\n%s--- served\n%s", bare.Bytes(), served.Bytes())
	}
	bareLines, err := os.ReadFile(bareStore)
	if err != nil {
		t.Fatal(err)
	}
	servedLines, err := os.ReadFile(servedStore)
	if err != nil {
		t.Fatal(err)
	}
	if len(bareLines) == 0 || !bytes.Equal(bareLines, servedLines) {
		t.Errorf("-status-addr changed the store:\n--- bare\n%s--- served\n%s", bareLines, servedLines)
	}
}

// TestResumeExecutesZeroNewJobs is the acceptance criterion: re-invoking an
// identical completed sweep with -resume must simulate nothing and still
// print the identical table.
func TestResumeExecutesZeroNewJobs(t *testing.T) {
	store := filepath.Join(t.TempDir(), "sweep.jsonl")
	var first, firstErr bytes.Buffer
	if code := run(sweepArgs("-workers", "2", "-out", store), &first, &firstErr); code != 0 {
		t.Fatalf("first run exit %d: %s", code, firstErr.String())
	}
	if !strings.Contains(firstErr.String(), "4 simulated, 0 cached") {
		t.Fatalf("first run accounting unexpected: %s", firstErr.String())
	}

	var second, secondErr bytes.Buffer
	if code := run(sweepArgs("-workers", "2", "-out", store, "-resume"), &second, &secondErr); code != 0 {
		t.Fatalf("resumed run exit %d: %s", code, secondErr.String())
	}
	if !strings.Contains(secondErr.String(), "0 simulated, 4 cached") {
		t.Fatalf("resumed run simulated new jobs: %s", secondErr.String())
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Errorf("resumed output differs from original:\n--- first\n%s--- resumed\n%s", first.Bytes(), second.Bytes())
	}
}

// TestFreshRunTruncatesStore: without -resume an existing -out store must not
// serve stale points.
func TestFreshRunTruncatesStore(t *testing.T) {
	store := filepath.Join(t.TempDir(), "sweep.jsonl")
	var out, errBuf bytes.Buffer
	if code := run(sweepArgs("-out", store), &out, &errBuf); code != 0 {
		t.Fatalf("exit %d: %s", code, errBuf.String())
	}
	errBuf.Reset()
	if code := run(sweepArgs("-out", store), &out, &errBuf); code != 0 {
		t.Fatalf("exit %d: %s", code, errBuf.String())
	}
	if !strings.Contains(errBuf.String(), "4 simulated, 0 cached") {
		t.Errorf("fresh run served cached points: %s", errBuf.String())
	}
}

// TestFlagValidation: bad measurement flags must fail fast with a clear
// one-line message and exit code 2, before any job exists — a non-positive
// -step used to loop forever, and an unknown routing name, a routing
// algorithm the flow lacks, a load above 2 or a negative lead used to build
// and run every job into a captured panic.
func TestFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"zero step", []string{"-step", "0"}, "-step must be > 0"},
		{"negative step", []string{"-step", "-0.1"}, "-step must be > 0"},
		{"from > to", []string{"-from", "0.8", "-to", "0.2"}, "-from (0.8) must not exceed to (0.2)"},
		{"non-positive from", []string{"-from", "0"}, "-from must be > 0"},
		{"non-positive sample", []string{"-sample", "0"}, "-sample must be > 0"},
		{"non-positive warmup", []string{"-warmup", "-5"}, "-warmup must be > 0"},
		{"negative workers", []string{"-workers", "-1"}, "-workers must be >= 0"},
		{"resume without out", []string{"-resume"}, "-resume needs -out"},
		{"unknown config", []string{"-configs", "FR6,NOPE"}, `unknown config "NOPE" (FR6, FR13, VC8, VC16, VC32, WH, SAF, VCT, CS, FR6-leadN)`},
		{"unknown wiring", []string{"-wiring", "bogus"}, `unknown wiring "bogus"`},
		{"unknown routing", []string{"-routing", "zz"}, `unknown routing "zz" (want xy, yx or table)`},
		{"routing off FR", []string{"-configs", "FR6,VC8", "-routing", "table"}, `routing "table" is implemented for flit-reservation configs only, not VC8`},
		{"load above 2", []string{"-to", "2.5"}, "-to must be <= 2 (got 2.5)"},
		{"step that never advances", []string{"-from", "2", "-to", "2", "-step", "1e-300"}, "-step (1e-300) expands to"},
		{"lead with a suffix", []string{"-configs", "FR6-lead2x"}, `bad lead in "FR6-lead2x"`},
		{"negative lead", []string{"-configs", "FR6-lead-3"}, `bad lead in "FR6-lead-3"`},
		{"lead under fast wiring", []string{"-configs", "FR6,FR6-lead2"}, "-wiring must be leading to run FR6-lead2"},
		{"adaptive bad routing", []string{"-adaptive", "-routing", "zz"}, `unknown routing "zz"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(tc.args, &stdout, &stderr)
			if code != 2 {
				t.Fatalf("exit %d, want 2 (stderr: %s)", code, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.want) {
				t.Errorf("stderr %q does not explain %q", stderr.String(), tc.want)
			}
			if n := strings.Count(stderr.String(), "\n"); n != 1 {
				t.Errorf("rejection is %d lines, want one:\n%s", n, stderr.String())
			}
			if stdout.Len() != 0 {
				t.Errorf("rejected invocation still wrote output: %s", stdout.String())
			}
		})
	}
}

// TestAdaptiveMode: -adaptive prints one bisection row per config and resumes
// from the store with zero new simulations.
func TestAdaptiveMode(t *testing.T) {
	store := filepath.Join(t.TempDir(), "sat.jsonl")
	args := []string{
		"-configs", "FR6", "-adaptive", "-step", "0.1",
		"-sample", "150", "-warmup", "300", "-workers", "2", "-out", store,
	}
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	outStr := stdout.String()
	if !strings.Contains(outStr, "bisection") || !strings.Contains(outStr, "FR6") {
		t.Fatalf("adaptive table malformed:\n%s", outStr)
	}

	resumed := append(args, "-resume")
	var stdout2, stderr2 bytes.Buffer
	if code := run(resumed, &stdout2, &stderr2); code != 0 {
		t.Fatalf("resumed exit %d: %s", code, stderr2.String())
	}
	if !strings.Contains(stderr2.String(), "0 runs simulated") {
		t.Fatalf("resumed adaptive search re-simulated: %s", stderr2.String())
	}
}

// TestReliabilityModeByteIdentical: the hard-fault scenario sweep must emit
// byte-identical tables for any worker count — the fault schedule rides the
// job spec, so it replays identically wherever a row lands. Also covers the
// custom -scenario path and its parse-error exit.
func TestReliabilityModeByteIdentical(t *testing.T) {
	for _, mode := range [][]string{
		{"-reliability", "-packets", "150", "-check"},
		{"-scenario", "down 5-6 @300; up 5-6 @700", "-packets", "150", "-csv"},
	} {
		var ref []byte
		for _, workers := range []string{"1", "4"} {
			var stdout, stderr bytes.Buffer
			args := append([]string{"-workers", workers}, mode...)
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("mode %v workers=%s exit %d: %s", mode, workers, code, stderr.String())
			}
			if ref == nil {
				ref = stdout.Bytes()
				continue
			}
			if !bytes.Equal(stdout.Bytes(), ref) {
				t.Errorf("mode %v: -workers=4 output differs from -workers=1:\n--- workers=1\n%s--- workers=4\n%s",
					mode, ref, stdout.Bytes())
			}
		}
	}

	var stdout, stderr bytes.Buffer
	if code := run([]string{"-scenario", "explode 5 @100"}, &stdout, &stderr); code != 2 {
		t.Errorf("malformed scenario exited %d, want 2 (stderr: %s)", code, stderr.String())
	}
}

// TestIntegrityAndChaosModesByteIdentical: the bit-error and chaos sweeps
// must emit byte-identical tables for any worker count — every cell owns its
// own network and RNG, and the chaos plan is a pure function of its seed.
func TestIntegrityAndChaosModesByteIdentical(t *testing.T) {
	for _, mode := range [][]string{
		{"-integrity", "-packets", "80", "-bers", "0,5e-3", "-check"},
		{"-integrity", "-packets", "80", "-bers", "5e-3", "-crc-bits", "2", "-csv"},
		{"-chaos", "-packets", "120", "-intensities", "0.3,0.6", "-check"},
		{"-chaos", "-packets", "120", "-intensities", "0.5", "-chaos-seed", "7", "-no-e2e", "-csv"},
	} {
		var ref []byte
		for _, workers := range []string{"1", "4"} {
			var stdout, stderr bytes.Buffer
			args := append([]string{"-workers", workers}, mode...)
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("mode %v workers=%s exit %d: %s", mode, workers, code, stderr.String())
			}
			if stdout.Len() == 0 {
				t.Fatalf("mode %v produced no output", mode)
			}
			if ref == nil {
				ref = stdout.Bytes()
				continue
			}
			if !bytes.Equal(stdout.Bytes(), ref) {
				t.Errorf("mode %v: -workers=4 output differs from -workers=1:\n--- workers=1\n%s--- workers=4\n%s",
					mode, ref, stdout.Bytes())
			}
		}
	}
}

// TestProfileCampaignOutput: -profile arms self-profiling on every point and
// writes a campaign activity summary that is byte-identical for any worker
// count; the sweep table itself must also stay byte-identical to an
// unprofiled run.
func TestProfileCampaignOutput(t *testing.T) {
	dir := t.TempDir()

	var bare, bareErr bytes.Buffer
	if code := run(sweepArgs("-workers", "2"), &bare, &bareErr); code != 0 {
		t.Fatalf("bare exit %d: %s", code, bareErr.String())
	}

	var profiles [][]byte
	for _, workers := range []string{"1", "4"} {
		path := filepath.Join(dir, "profile-"+workers+".json")
		store := filepath.Join(dir, "store-"+workers+".jsonl")
		var stdout, stderr bytes.Buffer
		if code := run(sweepArgs("-workers", workers, "-profile", path, "-out", store), &stdout, &stderr); code != 0 {
			t.Fatalf("workers=%s exit %d: %s", workers, code, stderr.String())
		}
		stored, err := os.ReadFile(store)
		if err != nil {
			t.Fatal(err)
		}
		lines := bytes.Split(bytes.TrimSpace(stored), []byte("\n"))
		if len(lines) != 4 {
			t.Fatalf("workers=%s: store holds %d rows, want 4", workers, len(lines))
		}
		for _, line := range lines {
			e, err := harness.DecodeEntry(line)
			if err != nil {
				t.Fatalf("workers=%s: %v in %s", workers, err, line)
			}
			o := e.Result.Observed
			if o == nil || o.Activity == nil || o.Waterfall != nil {
				t.Fatalf("%s@%g: sidecar of a -profile row: %+v", e.Spec, e.Load, o)
			}
			if a := o.Activity; !(a.Ticks > a.ActiveTicks && a.ActiveTicks > 0) {
				t.Errorf("%s@%g: want ticks > activeTicks > 0, got %+v", e.Spec, e.Load, *a)
			}
		}
		if !bytes.Equal(stdout.Bytes(), bare.Bytes()) {
			t.Errorf("-profile changed the sweep table:\n--- bare\n%s--- profiled\n%s", bare.Bytes(), stdout.Bytes())
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		profiles = append(profiles, raw)
	}
	if !bytes.Equal(profiles[0], profiles[1]) {
		t.Errorf("campaign profile differs across worker counts:\n--- 1w\n%s--- 4w\n%s", profiles[0], profiles[1])
	}

	var cp campaignProfile
	if err := json.Unmarshal(profiles[0], &cp); err != nil {
		t.Fatalf("campaign profile JSON: %v", err)
	}
	if cp.Points != 4 || cp.Simulated != 4 || len(cp.PerPoint) != 4 {
		t.Fatalf("campaign profile coverage wrong: %+v", cp)
	}
	if cp.Ticks == 0 || cp.IdleFraction <= 0 || cp.IdleFraction >= 1 {
		t.Fatalf("campaign aggregate empty: %+v", cp)
	}
	if cp.SchedWork == 0 || cp.SwitchWork == 0 {
		t.Fatalf("phase attribution missing (FR points present): %+v", cp)
	}

	// -profile applies to grid sweeps only.
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-adaptive", "-profile", filepath.Join(dir, "x.json")}, &stdout, &stderr); code != 2 {
		t.Fatalf("-adaptive -profile exit %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "grid sweeps only") {
		t.Errorf("stderr = %q", stderr.String())
	}
}

// TestIntegrityChaosFlagValidation: malformed rates and intensities fail fast
// with exit code 2 and a message naming the offending value.
func TestIntegrityChaosFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"ber too high", []string{"-integrity", "-bers", "1.5"}, "bad bit-error rate"},
		{"ber negative", []string{"-integrity", "-bers", "-0.1"}, "bad bit-error rate"},
		{"ber garbage", []string{"-integrity", "-bers", "0,zebra"}, "bad bit-error rate"},
		{"intensity zero", []string{"-chaos", "-intensities", "0"}, "bad chaos intensity"},
		{"intensity too high", []string{"-chaos", "-intensities", "0.5,1.2"}, "bad chaos intensity"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != 2 {
				t.Fatalf("exit %d, want 2 (stderr: %s)", code, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.want) {
				t.Errorf("stderr %q does not explain %q", stderr.String(), tc.want)
			}
		})
	}
}

// TestWaterfallCampaignOutput: -waterfall writes a worker-count-invariant
// campaign stage summary whose per-point partitions are exact, and prints one
// breakdown comment line per config without touching the sweep table.
func TestWaterfallCampaignOutput(t *testing.T) {
	dir := t.TempDir()

	var waterfalls [][]byte
	var outs [][]byte
	for _, workers := range []string{"1", "4"} {
		path := filepath.Join(dir, "waterfall-"+workers+".json")
		var stdout, stderr bytes.Buffer
		if code := run(sweepArgs("-workers", workers, "-waterfall", path, "-out", filepath.Join(dir, "on-"+workers+".jsonl")), &stdout, &stderr); code != 0 {
			t.Fatalf("workers=%s exit %d: %s", workers, code, stderr.String())
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		waterfalls = append(waterfalls, raw)
		outs = append(outs, stdout.Bytes())
	}
	if !bytes.Equal(waterfalls[0], waterfalls[1]) {
		t.Errorf("campaign waterfall differs across worker counts:\n--- 1w\n%s--- 4w\n%s", waterfalls[0], waterfalls[1])
	}
	if !bytes.Equal(outs[0], outs[1]) {
		t.Errorf("stdout differs across worker counts:\n--- 1w\n%s--- 4w\n%s", outs[0], outs[1])
	}
	for _, name := range []string{"FR6", "VC8"} {
		if !strings.Contains(string(outs[0]), "# waterfall "+name) {
			t.Errorf("stdout missing breakdown line for %s:\n%s", name, outs[0])
		}
	}

	var cw campaignWaterfall
	if err := json.Unmarshal(waterfalls[0], &cw); err != nil {
		t.Fatalf("campaign waterfall JSON: %v", err)
	}
	if cw.Points != 4 || cw.Simulated != 4 || len(cw.PerPoint) != 4 {
		t.Fatalf("campaign waterfall coverage wrong: %+v", cw)
	}
	if sum := cw.Queue + cw.Reserve + cw.Arb + cw.Stall + cw.Sched + cw.Link + cw.Drain; sum != cw.Total || cw.Total == 0 {
		t.Fatalf("aggregate stage sum %d != total %d", sum, cw.Total)
	}
	for _, p := range cw.PerPoint {
		if sum := p.Queue + p.Reserve + p.Arb + p.Stall + p.Sched + p.Link + p.Drain; sum != p.Total {
			t.Errorf("point %s@%.1f: stage sum %d != total %d", p.Spec, p.Load, sum, p.Total)
		}
	}

	// The same grid with provenance off: a store line differs from its
	// provenance-on twin by the one Observed key and nothing else.
	var stdout, stderr bytes.Buffer
	if code := run(sweepArgs("-workers", "4", "-out", filepath.Join(dir, "off.jsonl")), &stdout, &stderr); code != 0 {
		t.Fatalf("provenance-off exit %d: %s", code, stderr.String())
	}
	off := storeLines(t, filepath.Join(dir, "off.jsonl"))
	for _, workers := range []string{"1", "4"} {
		on := storeLines(t, filepath.Join(dir, "on-"+workers+".jsonl"))
		if len(on) != 4 || len(off) != 4 {
			t.Fatalf("stores hold %d and %d rows, want 4 each", len(on), len(off))
		}
		for key, line := range on {
			result := line["result"].(map[string]any)
			if _, ok := result["Observed"]; !ok {
				t.Errorf("%s: provenance-on line has no Observed key", key)
			}
			delete(result, "Observed")
			if _, ok := off[key]["result"].(map[string]any)["Observed"]; ok {
				t.Errorf("%s: provenance-off line has an Observed key", key)
			}
			if !reflect.DeepEqual(line, off[key]) {
				t.Errorf("%s: -waterfall disturbed the stored measurement:\n on: %v\noff: %v", key, line, off[key])
			}
		}
	}

	// -waterfall applies to grid sweeps only.
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-adaptive", "-waterfall", filepath.Join(dir, "x.json")}, &stdout, &stderr); code != 2 {
		t.Fatalf("-adaptive -waterfall exit %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "grid sweeps only") {
		t.Errorf("stderr = %q", stderr.String())
	}
}

// storeLines reads a -out store as untyped JSON, keyed by spec and load, so a
// comparison sees every key a line holds and not only those a struct declares.
func storeLines(t *testing.T, path string) map[string]map[string]any {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := map[string]map[string]any{}
	for _, line := range bytes.Split(bytes.TrimSpace(raw), []byte("\n")) {
		var m map[string]any
		if err := json.Unmarshal(line, &m); err != nil {
			t.Fatalf("%s: %v in %s", path, err, line)
		}
		lines[fmt.Sprintf("%v@%v", m["spec"], m["load"])] = m
	}
	return lines
}

// TestResumeOverUnobservedRowsSaysSo: -resume serves a stored row as the run
// that stored it left it, so an observer armed only on the resuming run has
// nothing to read. The artefact is written as before (empty) and the exit code
// is 0, but stderr names, once per armed observer, how many points that is and
// what observes them. Resuming over rows that were observed says nothing and
// reproduces the first run's artefacts.
func TestResumeOverUnobservedRowsSaysSo(t *testing.T) {
	dir := t.TempDir()
	store := filepath.Join(dir, "s.jsonl")
	prof, wf := filepath.Join(dir, "p.json"), filepath.Join(dir, "w.json")
	var stdout, stderr bytes.Buffer
	if code := run(sweepArgs("-out", store), &stdout, &stderr); code != 0 {
		t.Fatalf("bare run exit %d: %s", code, stderr.String())
	}
	stdout.Reset()
	stderr.Reset()
	if code := run(sweepArgs("-out", store, "-resume", "-profile", prof, "-waterfall", wf), &stdout, &stderr); code != 0 {
		t.Fatalf("resumed run exit %d: %s", code, stderr.String())
	}
	for _, flag := range []string{"-profile", "-waterfall"} {
		want := "sweep: " + flag + ": 4 of 4 points were served from the store"
		if n := strings.Count(stderr.String(), want); n != 1 {
			t.Errorf("stderr names the unobserved %s points %d times, want once:\n%s", flag, n, stderr.String())
		}
	}
	if !strings.Contains(stderr.String(), "drop -resume") {
		t.Errorf("stderr does not say what observes the points:\n%s", stderr.String())
	}
	var cp campaignProfile
	var cw campaignWaterfall
	for path, v := range map[string]any{prof: &cp, wf: &cw} {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, v); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if !bytes.Contains(raw, []byte(`"perPoint": null`)) {
			t.Errorf("%s lists points nothing observed:\n%s", path, raw)
		}
	}
	if cp.Points != 4 || cp.Simulated != 0 || cw.Points != 4 || cw.Simulated != 0 {
		t.Errorf("artefacts over unobserved rows: profile %+v, waterfall %+v", cp, cw)
	}
	if n := strings.Count(stdout.String(), "no decomposed packets"); n != 2 {
		t.Errorf("stdout has %d empty breakdown lines, want one per config:\n%s", n, stdout.String())
	}

	// Observed rows resume in silence, to the artefacts the observing run wrote.
	obsStore := filepath.Join(dir, "observed.jsonl")
	if code := run(sweepArgs("-out", obsStore, "-profile", prof, "-waterfall", wf), &stdout, &stderr); code != 0 {
		t.Fatalf("observed run exit %d: %s", code, stderr.String())
	}
	wantProf, _ := os.ReadFile(prof)
	wantWF, _ := os.ReadFile(wf)
	stderr.Reset()
	if code := run(sweepArgs("-out", obsStore, "-resume", "-profile", prof, "-waterfall", wf), &stdout, &stderr); code != 0 {
		t.Fatalf("resumed observed run exit %d: %s", code, stderr.String())
	}
	if strings.Contains(stderr.String(), "served from the store") || !strings.Contains(stderr.String(), "0 simulated, 4 cached") {
		t.Errorf("resume over observed rows: stderr\n%s", stderr.String())
	}
	gotProf, _ := os.ReadFile(prof)
	gotWF, _ := os.ReadFile(wf)
	if !bytes.Equal(gotProf, wantProf) || !bytes.Equal(gotWF, wantWF) {
		t.Errorf("resumed artefacts differ from the observing run's")
	}
}

// TestRejectsByName: what a fault mode cannot run it refuses exactly as the
// grid mode refuses a bad grid — exit 2, nothing on stdout, one stderr line
// naming the flag and the value — where a negative -packets, -retrylimit or
// -pktlen used to print a table of zeros (or of detect-only rows) and exit 0,
// and -pktlen 0 ran 5-flit packets under a title that said 0. A length or a
// retry budget past what a flit's 32-bit fields count is refused the same way.
func TestRejectsByName(t *testing.T) {
	var cases [][]string
	for _, mode := range []string{"-faults", "-reliability", "-integrity", "-chaos"} {
		cases = append(cases,
			[]string{mode, "-packets", "-5"}, []string{mode, "-retrylimit", "-1"},
			[]string{mode, "-pktlen", "-2"}, []string{mode, "-pktlen", "0"},
			[]string{mode, "-pktlen", "3000000000"}, []string{mode, "-retrylimit", "3000000000"})
	}
	cases = append(cases, []string{"-pktlen", "0"}, []string{"-pktlen", "-2"}, []string{"-pktlen", "3000000000"},
		[]string{"-scenario", "down 5-6 @400", "-packets", "-5"}, []string{"-adaptive", "-pktlen", "0"})
	for _, args := range cases {
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(args, &stdout, &stderr); code != 2 {
				t.Errorf("exit %d, want 2", code)
			}
			if stdout.Len() != 0 {
				t.Errorf("printed before refusing:\n%s", stdout.String())
			}
			msg, flag, value := stderr.String(), args[len(args)-2], args[len(args)-1]
			if !strings.HasPrefix(msg, "sweep: ") || strings.Count(msg, "\n") != 1 || strings.Contains(msg, "goroutine") ||
				!strings.Contains(msg, flag+" ") || !strings.Contains(msg, "(got "+value) {
				t.Errorf("stderr = %q, want one line naming %s and %s", msg, flag, value)
			}
		})
	}
}

// TestRefusesFlagsOutsideTheirMode: a flag the running mode does not read is
// refused by name — exit 2, nothing on stdout, one stderr line naming it —
// where it used to be ignored. The fault modes write no store, so -out with
// one used to truncate the named file, print the table and exit 0, leaving an
// empty store behind; now the store is not touched. -adaptive brackets its
// own search, so -from and -to beside it used to be ignored: -from 0.5 -to 0.6
// reported a saturation of 55 %, the midpoint of the fixed bracket.
func TestRefusesFlagsOutsideTheirMode(t *testing.T) {
	store := filepath.Join(t.TempDir(), "s.jsonl")
	line := []byte(`{"hash":"kept"}` + "\n")
	if err := os.WriteFile(store, line, 0o644); err != nil {
		t.Fatal(err)
	}
	var cases [][]string
	for _, mode := range [][]string{{"-faults"}, {"-integrity"}, {"-chaos"}, {"-reliability"}, {"-scenario", "down 5-6 @400"}} {
		for _, grid := range [][]string{{"-out", store}, {"-resume", "-out", store}, {"-timeout", "1s"}, {"-progress"}, {"-adaptive"},
			{"-configs", "VC8"}, {"-from", "0.2"}, {"-to", "0.5"}, {"-step", "0.2"}, {"-wiring", "leading"},
			{"-sample", "100"}, {"-warmup", "100"}, {"-routing", "xy"}, {"-configs", "VC8", "-wiring", "leading"}} {
			cases = append(cases, append(append([]string{}, mode...), grid...))
		}
	}
	cases = append(cases,
		[]string{"-rates", "0"}, []string{"-bers", "0"}, []string{"-crc-bits", "8"}, []string{"-intensities", "0.5"},
		[]string{"-no-e2e"}, []string{"-packets", "20"}, []string{"-retrylimit", "3"},
		[]string{"-integrity", "-rates", "0"}, []string{"-faults", "-bers", "0"}, []string{"-chaos", "-crc-bits", "8"},
		[]string{"-faults", "-intensities", "0.5"}, []string{"-reliability", "-no-e2e"}, []string{"-chaos", "-retrylimit", "3"},
		[]string{"-chaos-seed", "7"}, []string{"-faults", "-chaos-seed", "7"}, []string{"-integrity", "-chaos-seed", "7"},
		[]string{"-reliability", "-chaos-seed", "7"}, []string{"-scenario", "down 5-6 @400", "-chaos-seed", "7"},
		[]string{"-faults", "-packets", "20", "-rates", "0", "-out", store},
		[]string{"-adaptive", "-from", "0.5"}, []string{"-adaptive", "-configs", "VC8", "-to", "0.6", "-step", "0.2"})
	// The store lives in a fresh temporary directory whose name changes from
	// run to run; the subtest names show it as a fixed path so they do not.
	label := "/tmp/" + t.Name() + "/s.jsonl"
	for _, args := range cases {
		t.Run(strings.ReplaceAll(strings.Join(args, " "), store, label), func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(args, &stdout, &stderr); code != 2 {
				t.Errorf("exit %d, want 2", code)
			}
			if stdout.Len() != 0 {
				t.Errorf("printed before refusing:\n%s", stdout.String())
			}
			msg := stderr.String()
			named := false
			for _, a := range args {
				named = named || strings.HasPrefix(a, "-") && strings.HasPrefix(msg, "sweep: "+a+" applies to ")
			}
			if !named || strings.Count(msg, "\n") != 1 {
				t.Errorf("stderr = %q, want one line naming a flag of %v", msg, args)
			}
			if got, err := os.ReadFile(store); err != nil || !bytes.Equal(got, line) {
				t.Fatalf("the store changed: %q, %v", got, err)
			}
		})
	}
}
