package harness

import (
	"context"
	"errors"
	"os"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"frfc/internal/core"
	"frfc/internal/experiment"
)

// tinySpec is a fast-to-simulate configuration for harness tests: a 4×4 mesh
// with a reduced sample.
func tinySpec() experiment.Spec {
	s := experiment.FR6(experiment.FastControl, 5)
	s.MeshRadix = 4
	return s.Scaled(150, 300)
}

func tinyVC() experiment.Spec {
	s := experiment.VC8(experiment.FastControl, 5)
	s.MeshRadix = 4
	return s.Scaled(150, 300)
}

// TestParallelEqualsSerial is the determinism contract: RunJobs must produce
// bit-identical Results to serial experiment.Run for every worker count,
// because each job has a network to itself for the run, reset from the job's
// seed to its constructed state, and results are returned in job order.
func TestParallelEqualsSerial(t *testing.T) {
	specs := []experiment.Spec{tinySpec(), tinyVC()}
	loads := []float64{0.2, 0.4}
	var jobs []Job
	var serial []experiment.Result
	for _, s := range specs {
		for _, l := range loads {
			jobs = append(jobs, Job{Spec: s, Load: l})
			serial = append(serial, experiment.Run(s, l))
		}
	}
	for _, workers := range []int{1, 2, runtime.NumCPU(), 5} {
		got, err := RunJobs(context.Background(), jobs, Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, jr := range got {
			if jr.Err != "" {
				t.Fatalf("workers=%d job %d failed: %s", workers, i, jr.Err)
			}
			if !reflect.DeepEqual(jr.Result, serial[i]) {
				t.Errorf("workers=%d job %d (spec=%s load=%.2f) diverged from serial:\nparallel: %+v\nserial:   %+v",
					workers, i, serial[i].Spec, serial[i].Load, jr.Result, serial[i])
			}
		}
	}
}

// TestDocsNameTheCurrentHashVersion: every frfc-job-vN the prose mentions is
// the hashVersion jobs are actually keyed with.
func TestDocsNameTheCurrentHashVersion(t *testing.T) {
	for _, doc := range []string{"../../docs/harness.md", "../../DESIGN.md", "../../EXPERIMENTS.md"} {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range regexp.MustCompile(`frfc-job-v\d+`).FindAllString(string(raw), -1) {
			if m != hashVersion {
				t.Errorf("%s mentions %s, jobs hash under %s", doc, m, hashVersion)
			}
		}
	}
}

// TestJobHashStability: the hash must be insensitive to unset-vs-explicit
// defaults, and sensitive to anything that changes the simulation.
func TestJobHashStability(t *testing.T) {
	implicit := Job{Spec: experiment.FR6(experiment.FastControl, 5), Load: 0.5}
	explicit := Job{Spec: experiment.FR6(experiment.FastControl, 5).Normalized(), Load: 0.5}
	if implicit.Hash() != explicit.Hash() {
		t.Errorf("hash differs between implicit and explicit defaults")
	}
	faulty := experiment.FR6(experiment.FastControl, 5)
	faulty.Faults = []core.FaultEvent{{At: 100, Kind: core.LinkDown, A: 5, B: 6}}
	routed := experiment.FR6(experiment.FastControl, 5)
	routed.Routing = "yx"
	checked := experiment.FR6(experiment.FastControl, 5)
	checked.Check = true
	perturbed := []Job{
		{Spec: experiment.FR6(experiment.FastControl, 5), Load: 0.6},
		{Spec: experiment.FR6(experiment.FastControl, 21), Load: 0.5},
		{Spec: experiment.FR13(experiment.FastControl, 5), Load: 0.5},
		{Spec: experiment.FR6(experiment.FastControl, 5), Load: 0.5, Seed: 7},
		{Spec: faulty, Load: 0.5},
		{Spec: routed, Load: 0.5},
		{Spec: checked, Load: 0.5},
	}
	for i, j := range perturbed {
		if j.Hash() == implicit.Hash() {
			t.Errorf("perturbation %d did not change the hash", i)
		}
	}
}

// TestPanicIsolation: a panicking job must surface as that job's failure,
// stack attached, while its siblings complete normally.
func TestPanicIsolation(t *testing.T) {
	jobs := []Job{
		{Spec: tinySpec(), Load: 0.2},
		{Spec: tinySpec(), Load: 5.0}, // out-of-range load panics in experiment.Run
		{Spec: tinySpec(), Load: 0.3},
	}
	results, err := RunJobs(context.Background(), jobs, Options{Workers: 2})
	if err != nil {
		t.Fatalf("RunJobs: %v", err)
	}
	if results[0].Err != "" || results[2].Err != "" {
		t.Fatalf("sibling jobs failed: %q / %q", results[0].Err, results[2].Err)
	}
	bad := results[1]
	if !bad.Panicked || bad.Err == "" {
		t.Fatalf("panicking job not reported: %+v", bad)
	}
	if !strings.Contains(bad.Err, "out of range") || !strings.Contains(bad.Err, "goroutine") {
		t.Errorf("captured panic lacks message or stack: %.200s", bad.Err)
	}
}

// TestCancellationMidSweep: cancelling the campaign context after the first
// completion must stop the sweep — in-flight jobs exit at their next poll,
// queued jobs never start — and RunJobs reports the cancellation.
func TestCancellationMidSweep(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	spec := experiment.FR6(experiment.FastControl, 5).Scaled(3000, 2000)
	jobs := make([]Job, 6)
	for i := range jobs {
		jobs[i] = Job{Spec: spec, Load: 0.30 + 0.02*float64(i)}
	}
	var once sync.Once
	results, err := RunJobs(ctx, jobs, Options{
		Workers:  2,
		Progress: func(Progress) { once.Do(cancel) },
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunJobs error = %v, want context.Canceled", err)
	}
	failed := 0
	for _, jr := range results {
		if jr.Err != "" {
			failed++
			if !strings.Contains(jr.Err, "context canceled") {
				t.Errorf("unexpected failure kind: %s", jr.Err)
			}
		}
	}
	if failed == 0 {
		t.Fatal("cancellation stopped nothing")
	}
}

// TestPerJobTimeout: a job exceeding Options.Timeout fails with a deadline
// error instead of stalling the campaign.
func TestPerJobTimeout(t *testing.T) {
	jobs := []Job{{Spec: experiment.FR6(experiment.FastControl, 5).PaperScale(), Load: 0.4}}
	results, err := RunJobs(context.Background(), jobs, Options{Workers: 1, Timeout: time.Millisecond})
	if err != nil {
		t.Fatalf("RunJobs: %v", err)
	}
	if results[0].Err == "" || !strings.Contains(results[0].Err, "deadline") {
		t.Fatalf("timeout not reported: %+v", results[0])
	}
}

// TestProgressReporting: every job produces exactly one progress callback,
// counters are cumulative, and the final snapshot accounts for everything.
func TestProgressReporting(t *testing.T) {
	jobs := []Job{
		{Spec: tinySpec(), Load: 0.2},
		{Spec: tinySpec(), Load: 0.3},
		{Spec: tinySpec(), Load: 5.0}, // fails
	}
	var mu sync.Mutex
	var snaps []Progress
	_, err := RunJobs(context.Background(), jobs, Options{
		Workers: 2,
		Progress: func(p Progress) {
			mu.Lock()
			snaps = append(snaps, p)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != len(jobs) {
		t.Fatalf("got %d progress callbacks, want %d", len(snaps), len(jobs))
	}
	last := snaps[len(snaps)-1]
	if last.Done != 3 || last.Total != 3 || last.Failed != 1 {
		t.Errorf("final snapshot wrong: %+v", last)
	}
}
