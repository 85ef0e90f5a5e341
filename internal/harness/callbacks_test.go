package harness

import (
	"context"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"frfc/internal/metrics"
)

// TestCallbacksAndCollect: the live-status hooks must fire for every job, the
// collector must hand over a populated registry per simulated job, and none of
// it may perturb results — the campaign stays bit-identical to a bare one.
func TestCallbacksAndCollect(t *testing.T) {
	jobs := []Job{
		{Spec: tinySpec(), Load: 0.2},
		{Spec: tinySpec(), Load: 0.4},
		{Spec: tinyVC(), Load: 0.2},
	}
	bare, err := RunJobs(context.Background(), jobs, Options{Workers: 2})
	if err != nil {
		t.Fatalf("bare campaign: %v", err)
	}

	var mu sync.Mutex
	var started, finished, collected int
	var ejected int64
	got, err := RunJobs(context.Background(), jobs, Options{
		Workers:    2,
		JobStarted: func(Job, string) { mu.Lock(); started++; mu.Unlock() },
		JobFinished: func(jr JobResult) {
			mu.Lock()
			finished++
			mu.Unlock()
			if jr.Err != "" {
				t.Errorf("job failed: %s", jr.Err)
			}
		},
		Observe: metrics.Options{Metrics: true},
		Collect: func(j Job, p *metrics.Probe) {
			mu.Lock()
			defer mu.Unlock()
			collected++
			if p == nil || p.Reg == nil {
				t.Error("collector handed no registry")
				return
			}
			for i := range p.Reg.Nodes {
				ejected += p.Reg.Nodes[i].Ejected
			}
		},
	})
	if err != nil {
		t.Fatalf("instrumented campaign: %v", err)
	}
	if started != len(jobs) || finished != len(jobs) || collected != len(jobs) {
		t.Fatalf("hooks fired started=%d finished=%d collected=%d, want %d each",
			started, finished, collected, len(jobs))
	}
	if ejected == 0 {
		t.Fatal("collected registries recorded no traffic")
	}
	for i := range got {
		if !reflect.DeepEqual(got[i].Result, bare[i].Result) {
			t.Errorf("job %d result changed under instrumentation:\nbare: %+v\ninstr: %+v",
				i, bare[i].Result, got[i].Result)
		}
	}
}

// TestCachedJobsSkipStartAndCollect: store hits resolve without simulating, so
// they must not fire JobStarted or Collect — but JobFinished still reports
// them, flagged Cached, so status displays count them.
func TestCachedJobsSkipStartAndCollect(t *testing.T) {
	store, err := OpenStore(filepath.Join(t.TempDir(), "results.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	jobs := []Job{{Spec: tinySpec(), Load: 0.2}}
	if _, err := RunJobs(context.Background(), jobs, Options{Workers: 1, Store: store}); err != nil {
		t.Fatal(err)
	}

	var started, collected, cachedFinished int
	got, err := RunJobs(context.Background(), jobs, Options{
		Workers:    1,
		Store:      store,
		JobStarted: func(Job, string) { started++ },
		Observe:    metrics.Options{Metrics: true},
		Collect:    func(Job, *metrics.Probe) { collected++ },
		JobFinished: func(jr JobResult) {
			if jr.Cached {
				cachedFinished++
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !got[0].Cached {
		t.Fatal("second run did not hit the store")
	}
	if started != 0 || collected != 0 || cachedFinished != 1 {
		t.Fatalf("cached job fired started=%d collected=%d cachedFinished=%d, want 0,0,1",
			started, collected, cachedFinished)
	}
}
