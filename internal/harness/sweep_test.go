package harness

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"frfc/internal/core"
	"frfc/internal/experiment"
)

// TestAppendJobsMatchesSerialSweep: a grid sweep — AppendJobs per spec, one
// RunJobs — must reproduce experiment.Sweep bit-for-bit, per spec, at any
// worker count.
func TestAppendJobsMatchesSerialSweep(t *testing.T) {
	specs := []experiment.Spec{tinySpec(), tinyVC()}
	loads := []float64{0.2, 0.4}
	var jobs []Job
	for _, s := range specs {
		jobs = AppendJobs(jobs, s, loads)
	}
	jrs, err := RunJobs(context.Background(), jobs, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range specs {
		serial := experiment.Sweep(s, loads)
		for j := range loads {
			jr := jrs[i*len(loads)+j]
			if jr.Err != "" {
				t.Fatalf("spec %d load %d failed: %s", i, j, jr.Err)
			}
			if !reflect.DeepEqual(jr.Result, serial[j]) {
				t.Errorf("spec %s load %.2f diverged from serial sweep", s.Name, loads[j])
			}
		}
	}
}

// serialVsParallel resolves a sweep's rows one after another — the reference —
// and fanned over four workers, and requires the same points in the same row
// order.
func serialVsParallel(t *testing.T, rows []experiment.Spec) []experiment.Resolved {
	t.Helper()
	serial := make([]experiment.Resolved, 0, len(rows))
	for _, s := range rows {
		p, err := experiment.Resolve(context.Background(), s)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		serial = append(serial, p)
	}
	parallel, err := ResolveRows(context.Background(), rows, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("parallel sweep diverged:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
	return serial
}

// TestFaultSweepParallelMatchesSerial: the fault sweep fanned over workers
// must reproduce the serial sweep exactly, in the same row order.
func TestFaultSweepParallelMatchesSerial(t *testing.T) {
	serialVsParallel(t, experiment.FaultSweepOptions{
		ResolveOptions: experiment.ResolveOptions{Radix: 4, Packets: 60},
		RetryLimit:     4, Rates: []float64{0, 0.05},
	}.Rows())
}

// TestReliabilitySweepParallelMatchesSerial: the hard-fault scenario sweep
// fanned over workers must reproduce the serial sweep exactly, in scenario
// order.
func TestReliabilitySweepParallelMatchesSerial(t *testing.T) {
	serialVsParallel(t, experiment.ReliabilitySweepOptions{
		ResolveOptions: experiment.ResolveOptions{Packets: 200, Check: true},
	}.Rows())
}

// TestResolveRowsNamesTheFailedRow: a row's own error comes back wrapped in the
// row's name, once, alongside the points of the rows that completed.
func TestResolveRowsNamesTheFailedRow(t *testing.T) {
	o := experiment.ReliabilitySweepOptions{
		ResolveOptions: experiment.ResolveOptions{Packets: 30},
		Scenarios: []experiment.ReliabilityScenario{
			{Name: "healthy"},
			{Name: "bad", Events: []core.FaultEvent{{At: 100, Kind: core.LinkDown, A: 3, B: 9}}},
		},
	}
	points, err := ResolveRows(context.Background(), o.Rows(), 2)
	if err == nil || !strings.HasPrefix(err.Error(), `row "bad": `) || strings.Count(err.Error(), `"bad"`) != 1 {
		t.Fatalf("err = %v, want it to name the failed row exactly once", err)
	}
	if len(points) != 2 || points[0].Offered != 30 || points[1].Offered != 0 {
		t.Fatalf("points = %+v, want the healthy row complete and the bad row zero", points)
	}
}

// TestScenarioJobsDeterministicAcrossWorkers: a campaign whose specs carry a
// hard-fault scenario must stay bit-identical across worker counts — faults
// ride the job spec, so the schedule replays identically wherever the job
// lands.
func TestScenarioJobsDeterministicAcrossWorkers(t *testing.T) {
	s := tinySpec()
	s.Name = "FR6-linkflap"
	s.FR.RetryLimit = 4
	s.Routing = "table"
	s.Check = true
	s.Faults = []core.FaultEvent{
		{At: 300, Kind: core.LinkDown, A: 5, B: 6},
		{At: 900, Kind: core.LinkUp, A: 5, B: 6},
	}
	jobs := []Job{{Spec: s, Load: 0.2}, {Spec: s, Load: 0.4, Seed: 2}, {Spec: s, Load: 0.4, Seed: 3}}
	ref, err := RunJobs(context.Background(), jobs, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i, jr := range ref {
		if jr.Err != "" {
			t.Fatalf("job %d failed: %s", i, jr.Err)
		}
	}
	for _, workers := range []int{2, 4} {
		got, err := RunJobs(context.Background(), jobs, Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range jobs {
			if got[i].Err != "" {
				t.Fatalf("workers=%d job %d failed: %s", workers, i, got[i].Err)
			}
			if !reflect.DeepEqual(got[i].Result, ref[i].Result) {
				t.Errorf("workers=%d job %d diverged from serial:\nparallel: %+v\nserial:   %+v",
					workers, i, got[i].Result, ref[i].Result)
			}
		}
	}
}
