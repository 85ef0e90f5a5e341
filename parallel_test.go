package frfc_test

import (
	"context"
	"path/filepath"
	"reflect"
	"testing"

	"frfc"
	"frfc/internal/experiment"
)

// TestSweepParallelMatchesSweep: the public parallel sweep must be
// bit-identical to the serial one at any worker count, and a re-run over the
// same ResultPath must be served entirely from cache.
func TestSweepParallelMatchesSweep(t *testing.T) {
	s := frfc.FR6(frfc.FastControl, 5).WithMeshRadix(4).WithSampling(150, 300)
	loads := []float64{0.2, 0.4}
	serial := frfc.Sweep(s, loads)

	for _, workers := range []int{1, 4} {
		got, err := frfc.SweepParallel(context.Background(), s, loads, frfc.ParallelOptions{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(got, serial) {
			t.Errorf("workers=%d parallel sweep diverged from serial", workers)
		}
	}

	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	jobs := make([]frfc.Job, len(loads))
	for i, l := range loads {
		jobs[i] = frfc.Job{Spec: s, Load: l}
	}
	first, err := frfc.RunJobs(context.Background(), jobs, frfc.ParallelOptions{Workers: 2, ResultPath: path})
	if err != nil {
		t.Fatal(err)
	}
	second, err := frfc.RunJobs(context.Background(), jobs, frfc.ParallelOptions{Workers: 2, ResultPath: path})
	if err != nil {
		t.Fatal(err)
	}
	for i := range second {
		if !second[i].Cached {
			t.Errorf("job %d re-simulated despite the result store", i)
		}
		if !reflect.DeepEqual(second[i].Result, first[i].Result) {
			t.Errorf("job %d cached result differs", i)
		}
	}
}

// TestPublicSaturationSearch: the adaptive search, and SaturationThroughput
// over it, agree with the serial bisection over plain runs.
func TestPublicSaturationSearch(t *testing.T) {
	s := frfc.FR6(frfc.FastControl, 5).WithMeshRadix(4).WithSampling(150, 300)
	want, _, err := experiment.Bisect(s, 0.05, func(s experiment.Spec, load float64) (experiment.Result, error) {
		return experiment.Run(s, load), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := frfc.SaturationThroughput(s, 0.05); got != want {
		t.Errorf("SaturationThroughput found %.4f, the serial bisection %.4f", got, want)
	}
	pts, err := frfc.SaturationSearch(context.Background(), []frfc.Spec{s}, 0.05, frfc.ParallelOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if pts[0].Err != "" {
		t.Fatalf("search failed: %s", pts[0].Err)
	}
	if pts[0].Saturation != want {
		t.Errorf("SaturationSearch found %.4f, the serial bisection %.4f", pts[0].Saturation, want)
	}
}

// TestFaultSweepWorkers: the fault sweep produces identical points serial and
// parallel.
func TestFaultSweepWorkers(t *testing.T) {
	base := frfc.FaultSweepOptions{ResolveOptions: frfc.ResolveOptions{Packets: 60}, Rates: []float64{0, 0.05}, RetryLimit: 4}
	serialOpts := base
	serialOpts.Workers = 1
	parallelOpts := base
	parallelOpts.Workers = 4
	serial, err := frfc.FaultSweep(serialOpts)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := frfc.FaultSweep(parallelOpts)
	if err != nil || !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("fault sweep diverged across worker counts:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
}
