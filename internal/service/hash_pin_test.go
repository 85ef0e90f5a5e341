package service

import (
	"bufio"
	"encoding/json"
	"os"
	"testing"

	"frfc/internal/harness"
)

// TestSharedRenderingHashesArePinned: the jobs a campaign expands to share one
// rendering of their spec, and that must not move a single hash. For every job
// of the committed store's grid (benchmarks/campaign.jsonl: six configs at
// loads 0.2–0.6) the shared-rendering hash equals the hash of the same job
// built as a bare literal equals the hash field the store recorded — and the
// same two-way identity holds under a Seed override and for a spec whose
// defaults are spelled out.
func TestSharedRenderingHashesArePinned(t *testing.T) {
	type key struct {
		spec string
		load float64
	}
	stored := map[key]string{}
	f, err := os.Open("../../benchmarks/campaign.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var e struct {
			Hash string  `json:"hash"`
			Spec string  `json:"spec"`
			Load float64 `json:"load"`
		}
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatal(err)
		}
		stored[key{e.Spec, e.Load}] = e.Hash
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	req := SweepRequest{
		Configs: []string{"FR6", "VC8", "WH", "SAF", "VCT", "CS"},
		From:    0.2, To: 0.6, Step: 0.2, Sample: 400, Warmup: 600,
	}
	if err := req.normalized(); err != nil {
		t.Fatal(err)
	}
	jobs, err := req.jobs()
	if err != nil {
		t.Fatal(err)
	}
	if jobs.len() != len(stored) {
		t.Fatalf("grid has %d jobs, the committed store %d lines", jobs.len(), len(stored))
	}
	for i := 0; i < jobs.len(); i++ {
		j := jobs.at(i)
		name := j.EffectiveSpec().Name
		bare := harness.Job{Spec: j.Spec, Load: j.Load}.Hash()
		if got, want := j.Hash(), stored[key{name, j.Load}]; got != bare || got != want {
			t.Errorf("%s @ %v: shared rendering %s, bare literal %s, stored %s", name, j.Load, got, bare, want)
		}

		seeded := j
		seeded.Seed = 7
		bare = harness.Job{Spec: j.Spec, Load: j.Load, Seed: 7}.Hash()
		if got := seeded.Hash(); got != bare || got == j.Hash() {
			t.Errorf("%s @ %v with Seed 7: shared rendering %s, bare literal %s, unseeded %s", name, j.Load, got, bare, j.Hash())
		}

		twin := harness.AppendJobs(nil, j.Spec.Normalized(), []float64{j.Load})[0]
		if got := twin.Hash(); got != j.Hash() {
			t.Errorf("%s @ %v: explicit-defaults twin hashes %s, want %s", name, j.Load, got, j.Hash())
		}
	}
}
