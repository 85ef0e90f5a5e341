package harness

import (
	"context"
	"math"
	"path/filepath"
	"reflect"
	"testing"

	"frfc/internal/experiment"
)

// TestSaturationSearchMatchesSerial: the pooled bisection must land on the
// same saturation point as experiment.Bisect over plain runs, because it
// walks the identical load sequence through the identical sustainability
// predicate.
func TestSaturationSearchMatchesSerial(t *testing.T) {
	spec := tinySpec()
	const resolution = 0.05
	want, _, err := experiment.Bisect(spec, resolution, func(s experiment.Spec, load float64) (experiment.Result, error) {
		return experiment.Run(s, load), nil
	})
	if err != nil {
		t.Fatal(err)
	}

	got, err := SaturationSearch(context.Background(), []experiment.Spec{spec}, resolution, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	sr := got[0]
	if sr.Err != "" {
		t.Fatalf("search failed: %s", sr.Err)
	}
	if sr.Saturation != want {
		t.Errorf("saturation %.4f, serial search found %.4f", sr.Saturation, want)
	}
	wantEff := want * (1 - spec.Normalized().BandwidthPenalty)
	if math.Abs(sr.Effective-wantEff) > 1e-12 {
		t.Errorf("effective %.6f, want %.6f", sr.Effective, wantEff)
	}
	if sr.Evals == 0 || sr.Simulated != sr.Evals {
		t.Errorf("eval accounting wrong on a cold run: evals=%d simulated=%d", sr.Evals, sr.Simulated)
	}
	// Bisection cost must stay logarithmic: base + endpoints + the chain
	// over the protocol's [0.10, 1.0] bracket.
	bound := 3 + int(math.Ceil(math.Log2((1.0-0.10)/resolution)))
	if got := experiment.MaxEvals(resolution); got != bound {
		t.Errorf("MaxEvals(%.2f) = %d, want %d", resolution, got, bound)
	}
	if sr.Evals > bound {
		t.Errorf("search took %d evals, bound is %d", sr.Evals, bound)
	}
}

// TestSaturationSearchResumes: a repeated search over a warm store simulates
// nothing — every bisection step is a cache hit.
func TestSaturationSearchResumes(t *testing.T) {
	spec := tinySpec()
	const resolution = 0.1
	path := filepath.Join(t.TempDir(), "sat.jsonl")

	st, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	first, err := SaturationSearch(context.Background(), []experiment.Spec{spec}, resolution, Options{Workers: 1, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	st.Close()

	st, err = OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	second, err := SaturationSearch(context.Background(), []experiment.Spec{spec}, resolution, Options{Workers: 1, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	if second[0].Simulated != 0 {
		t.Errorf("resumed search simulated %d points, want 0", second[0].Simulated)
	}
	if second[0].Saturation != first[0].Saturation {
		t.Errorf("resumed search moved the saturation point: %.4f vs %.4f", second[0].Saturation, first[0].Saturation)
	}
}

// TestSummarizeAllResumes: a Table 3 row over a store that already holds the
// spec's saturation search and its cell at 50% simulates nothing, and equals
// the row measured on a fresh store.
func TestSummarizeAllResumes(t *testing.T) {
	ctx := context.Background()
	specs := []experiment.Spec{tinySpec()}
	const resolution = 0.1
	st, err := OpenStore(filepath.Join(t.TempDir(), "table3.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	o := Options{Workers: 1, Store: st}
	sat, err := SaturationSearch(ctx, specs, resolution, o)
	if err != nil || sat[0].Err != "" {
		t.Fatalf("search: %v %s", err, sat[0].Err)
	}
	at50, err := RunJobs(ctx, []Job{{Spec: specs[0], Load: 0.50}}, o)
	if err != nil || at50[0].Err != "" {
		t.Fatalf("cell at 50%%: %v %s", err, at50[0].Err)
	}

	summarize := func(store ResultStore) ([]experiment.SummaryRow, int) {
		started := 0
		rows, err := SummarizeAll(ctx, specs, resolution, Options{Workers: 1, Store: store, JobStarted: func(Job) { started++ }})
		if err != nil {
			t.Fatal(err)
		}
		return rows, started
	}
	resumed, simulated := summarize(st)
	if simulated != 0 {
		t.Errorf("SummarizeAll over a warm store simulated %d jobs, want 0", simulated)
	}
	fresh, simulated := summarize(&Store{})
	if simulated != sat[0].Evals+1 {
		t.Errorf("SummarizeAll over a fresh store simulated %d jobs, want the search's %d and the cell at 50%%", simulated, sat[0].Evals)
	}
	if !reflect.DeepEqual(resumed, fresh) {
		t.Errorf("resumed row %+v, fresh row %+v", resumed, fresh)
	}
	if fresh[0].Throughput != sat[0].Saturation || fresh[0].LatencyAt50 != at50[0].Result.AvgLatency {
		t.Errorf("row %+v is not the search's saturation %.4f and the cell's latency %.2f", fresh[0], sat[0].Saturation, at50[0].Result.AvgLatency)
	}
}
