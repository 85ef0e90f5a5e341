package harness

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"frfc/internal/experiment"
	"frfc/internal/metrics"
)

// TestWaterfallParallelEqualsSerial extends the determinism contract to
// latency-provenance campaigns: with a ledger-carrying Options.Probe, every
// worker count must produce bit-identical Results — including the
// Observed.Waterfall stage summary — and the measurement must match a plain
// run exactly.
func TestWaterfallParallelEqualsSerial(t *testing.T) {
	specs := []experiment.Spec{tinySpec(), tinyVC()}
	loads := []float64{0.2, 0.4}
	var jobs []Job
	for _, s := range specs {
		for _, l := range loads {
			jobs = append(jobs, Job{Spec: s, Load: l})
		}
	}

	serial, err := RunJobs(context.Background(), jobs, Options{Workers: 1, Observe: observing(false, true)})
	if err != nil {
		t.Fatal(err)
	}
	for i, jr := range serial {
		if jr.Err != "" {
			t.Fatalf("serial job %d failed: %s", i, jr.Err)
		}
		w := jr.Result.Observed.Waterfall
		if w.Packets == 0 || w.Total == 0 {
			t.Errorf("job %d: waterfall run decomposed nothing: packets=%d total=%d",
				i, w.Packets, w.Total)
		}
		if sum := w.Queue + w.Reserve + w.Arb + w.Stall + w.Sched + w.Link + w.Drain; sum != w.Total {
			t.Errorf("job %d: stage sum %d != total %d", i, sum, w.Total)
		}
	}

	parallel, err := RunJobs(context.Background(), jobs, Options{Workers: 4, Observe: observing(false, true)})
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		if parallel[i].Err != "" {
			t.Fatalf("parallel job %d failed: %s", i, parallel[i].Err)
		}
		if !reflect.DeepEqual(parallel[i].Result, serial[i].Result) {
			t.Errorf("job %d diverged between 1 and 4 workers:\n1w: %+v\n4w: %+v",
				i, serial[i].Result, parallel[i].Result)
		}
	}

	// Latency provenance is observation-only: drop the sidecar and the
	// Result must be bit-identical to a plain campaign's.
	plain, err := RunJobs(context.Background(), jobs, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		stripped := serial[i].Result
		stripped.Observed = nil
		if stripped != plain[i].Result {
			t.Errorf("job %d: waterfall result (sidecar dropped) diverged from plain:\nwaterfall: %+v\nplain:     %+v",
				i, stripped, plain[i].Result)
		}
	}
}

// TestCollectWaterfallHandover: Collect must receive one probe per simulated
// job, its stage ledger consistent with that job's Result summary.
func TestCollectWaterfallHandover(t *testing.T) {
	jobs := []Job{
		{Spec: tinySpec(), Load: 0.3},
		{Spec: tinyVC(), Load: 0.3},
	}
	var mu sync.Mutex
	got := map[string]*metrics.Probe{}
	o := Options{
		Workers: 2,
		Observe: observing(false, true),
		Collect: func(j Job, p *metrics.Probe) {
			mu.Lock()
			got[j.Hash()] = p
			mu.Unlock()
		},
	}
	results, err := RunJobs(context.Background(), jobs, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(jobs) {
		t.Fatalf("collected %d ledgers, want %d", len(got), len(jobs))
	}
	for i, jr := range results {
		if jr.Err != "" {
			t.Fatalf("job %d failed: %s", i, jr.Err)
		}
		l := got[jr.Hash].Waterfall()
		if l == nil {
			t.Fatalf("job %d: no ledger handed over", i)
		}
		if got := l.Totals(); got != *jr.Result.Observed.Waterfall {
			t.Errorf("job %d: ledger %+v disagrees with Result %+v", i, got, *jr.Result.Observed.Waterfall)
		}
	}
}
