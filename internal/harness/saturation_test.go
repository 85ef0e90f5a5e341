package harness

import (
	"context"
	"math"
	"path/filepath"
	"testing"

	"frfc/internal/experiment"
)

// TestSaturationSearchMatchesSerial: the pooled bisection must land on the
// same saturation point as experiment.SaturationThroughput, because it walks
// the identical load sequence through the identical sustainability predicate.
func TestSaturationSearchMatchesSerial(t *testing.T) {
	spec := tinySpec()
	const resolution = 0.05
	want := experiment.SaturationThroughput(spec, resolution)

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
