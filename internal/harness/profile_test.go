package harness

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"frfc/internal/experiment"
	"frfc/internal/metrics"
)

// observing is the Options.Observe of a campaign that arms the self-profiler,
// the stage ledger or both on every job.
func observing(prof, wf bool) metrics.Options {
	return metrics.Options{Profile: prof, Waterfall: wf}
}

// TestProfiledParallelEqualsSerial extends the determinism contract to
// profiled campaigns: with a profiling Options.Observe, every worker count must
// produce bit-identical Results — including the Observed.Activity summary —
// and the measurement must match an unprofiled run exactly.
func TestProfiledParallelEqualsSerial(t *testing.T) {
	specs := []experiment.Spec{tinySpec(), tinyVC()}
	loads := []float64{0.2, 0.4}
	var jobs []Job
	for _, s := range specs {
		for _, l := range loads {
			jobs = append(jobs, Job{Spec: s, Load: l})
		}
	}

	serial, err := RunJobs(context.Background(), jobs, Options{Workers: 1, Observe: observing(true, false)})
	if err != nil {
		t.Fatal(err)
	}
	for i, jr := range serial {
		if jr.Err != "" {
			t.Fatalf("serial job %d failed: %s", i, jr.Err)
		}
		a := jr.Result.Observed.Activity
		if a.Ticks == 0 || a.ActiveTicks == 0 {
			t.Errorf("job %d: profiled run reported no activity: ticks=%d active=%d",
				i, a.Ticks, a.ActiveTicks)
		}
		if f := a.IdleFraction; f <= 0 || f >= 1 {
			t.Errorf("job %d: idle fraction %v out of (0,1)", i, f)
		}
	}

	parallel, err := RunJobs(context.Background(), jobs, Options{Workers: 4, Observe: observing(true, false)})
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

	// Profiling is observation-only: drop the sidecar and the Result must be
	// bit-identical to an unprofiled campaign's.
	plain, err := RunJobs(context.Background(), jobs, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		stripped := serial[i].Result
		stripped.Observed = nil
		if stripped != plain[i].Result {
			t.Errorf("job %d: profiled result (sidecar dropped) diverged from unprofiled:\nprofiled:   %+v\nunprofiled: %+v",
				i, stripped, plain[i].Result)
		}
	}
}

// TestCollectProfileHandover: Collect must receive one probe per simulated
// job, its profile registry consistent with that job's Result summary.
func TestCollectProfileHandover(t *testing.T) {
	jobs := []Job{
		{Spec: tinySpec(), Load: 0.3},
		{Spec: tinyVC(), Load: 0.3},
	}
	var mu sync.Mutex
	got := map[string]*metrics.Probe{}
	o := Options{
		Workers: 2,
		Observe: observing(true, false),
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
		t.Fatalf("collected %d profile registries, want %d", len(got), len(jobs))
	}
	for i, jr := range results {
		if jr.Err != "" {
			t.Fatalf("job %d failed: %s", i, jr.Err)
		}
		p := got[jr.Hash].Profile()
		if p == nil {
			t.Fatalf("job %d: no profile registry handed over", i)
		}
		if a := p.Activity(); a != *jr.Result.Observed.Activity {
			t.Errorf("job %d: registry summary %+v disagrees with Result summary %+v",
				i, a, *jr.Result.Observed.Activity)
		}
		if p.Cycles == 0 {
			t.Errorf("job %d: registry Cycles not stamped", i)
		}
	}
}
