package main

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"frfc/internal/experiment"
	"frfc/internal/harness"
)

// TestRejectsBadSelectionsByName: a bad -scale, -fig, -table or -extra is exit
// 2 with one stderr line naming the flag and the value, before anything
// prints — -scale too on the analytic tables, which never measure at one.
func TestRejectsBadSelectionsByName(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-table", "1", "-scale", "bogus"}, `-scale "bogus"`},
		{[]string{"-fig", "5", "-scale", ""}, `-scale ""`},
		{[]string{"-fig", "4"}, "-fig 4"},
		{[]string{"-all", "-fig", "10"}, "-fig 10"},
		{[]string{"-table", "7"}, "-table 7"},
		{[]string{"-table", "-1"}, "-table -1"},
		{[]string{"-extra", "nonsense"}, `-extra "nonsense"`},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", tc.args, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: printed before rejecting:\n%s", tc.args, stdout.String())
		}
		if msg := stderr.String(); !strings.HasPrefix(msg, "paperfigs: "+tc.want) || strings.Count(msg, "\n") != 1 {
			t.Errorf("%v: stderr = %q, want one line starting %q", tc.args, msg, "paperfigs: "+tc.want)
		}
	}

	var stdout, stderr bytes.Buffer
	if code := run(nil, &stdout, &stderr); code != 2 || stdout.Len() != 0 || !strings.Contains(stderr.String(), "Usage of paperfigs") {
		t.Errorf("no selection: exit %d, stdout %q, stderr %q; want usage and exit 2", code, stdout.String(), stderr.String())
	}
}

// TestAnalyticTablesMatchTheArtefact: Tables 1 and 2 print the committed
// artefact's sections byte for byte. The simulated sections take minutes, so
// the whole file is compared where that can be afforded: CI regenerates it
// with `paperfigs -all -scale quick | cmp - docs/paperfigs-quick.txt`.
func TestAnalyticTablesMatchTheArtefact(t *testing.T) {
	raw, err := os.ReadFile("../../docs/paperfigs-quick.txt")
	if err != nil {
		t.Fatal(err)
	}
	artefact := string(raw)
	for _, tc := range []struct{ table, header string }{
		{"1", "== Table 1:"},
		{"2", "== Table 2:"},
	} {
		start := strings.Index(artefact, tc.header)
		if start < 0 {
			t.Fatalf("artefact has no %q section", tc.header)
		}
		want := artefact[start:]
		want = want[:strings.Index(want, "\n\n")+2]

		var stdout, stderr bytes.Buffer
		if code := run([]string{"-table", tc.table}, &stdout, &stderr); code != 0 || stderr.Len() != 0 {
			t.Fatalf("-table %s: exit %d, stderr %q", tc.table, code, stderr.String())
		}
		if stdout.String() != want {
			t.Errorf("-table %s differs from docs/paperfigs-quick.txt:\n--- printed\n%s--- artefact\n%s", tc.table, stdout.String(), want)
		}
	}
}

// tiny is a measurement effort small enough for a unit test.
func tiny(s experiment.Spec) experiment.Spec {
	s.MeshRadix = 4
	return s.Scaled(200, 300)
}

// TestFailedJobFailsThePart: a job that fails ends its part with an error
// naming the spec and the load, instead of a "failed" cell and exit 0.
func TestFailedJobFailsThePart(t *testing.T) {
	s := experiment.FR6(experiment.FastControl, 5)
	s.Name = "FR6-pigeon"
	s.Flow = "carrier-pigeon" // experiment.NewNetwork panics on it
	var out bytes.Buffer
	f := figs{w: &out, scaled: tiny, pool: harness.Options{Workers: 1, Store: &harness.Store{}}}
	err := f.sweepFig("Figure 0: a bad flow", []experiment.Spec{s}, []float64{0.20})
	if err == nil {
		t.Fatalf("a job on an unknown flow did not fail the part:\n%s", out.String())
	}
	for _, want := range []string{"Figure 0", "FR6-pigeon", "load 0.2000", "carrier-pigeon"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
}

// TestObserversNeverTakeACachedResult: the pool's cache already holds every
// job the activity and waterfall tables make, simulated unobserved, and both
// still print an observation in every row — they run on the pool without its
// cache, since a cached result carries no observation.
func TestObserversNeverTakeACachedResult(t *testing.T) {
	var out bytes.Buffer
	f := figs{w: &out, scaled: tiny, pool: harness.Options{Workers: 2, Store: &harness.Store{}}}
	jobs := harness.AppendJobs(nil, tiny(experiment.FR6(experiment.FastControl, 5)), observedLoads)
	for _, s := range configs("fast", 5, "FR6", "VC8") {
		s.Check = true
		jobs = harness.AppendJobs(jobs, tiny(s), observedLoads)
	}
	if _, err := runJobs(f.pool, jobs); err != nil {
		t.Fatal(err)
	}
	if jrs, err := runJobs(f.pool, jobs); err != nil || !jrs[len(jrs)-1].Cached {
		t.Fatalf("the jobs did not come back from the cache: %v", err)
	}

	for _, part := range []struct {
		name string
		run  func() error
		rows int
		// obs is the fields of a row that hold its observation.
		obs func(fields []string) []string
	}{
		{"activity", f.activity, len(observedLoads), func(fs []string) []string { return fs[1:2] }},
		{"waterfall", f.waterfall, 2 * len(observedLoads), func(fs []string) []string { return fs[2:] }},
	} {
		out.Reset()
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s panicked: %v", part.name, r)
				}
			}()
			if err := part.run(); err != nil {
				t.Errorf("%s: %v", part.name, err)
			}
		}()
		var rows int
		for _, line := range strings.Split(out.String(), "\n") {
			fs := strings.Fields(line)
			if len(fs) < 3 || !strings.HasSuffix(fs[0], "%") && !strings.HasSuffix(fs[1], "%") {
				continue // a title, the header or the blank line after the table
			}
			rows++
			zero := true
			for _, v := range part.obs(fs) {
				zero = zero && strings.Trim(v, "0.") == ""
			}
			if zero {
				t.Errorf("%s row without an observation: %q", part.name, line)
			}
		}
		if rows != part.rows {
			t.Errorf("%s printed %d rows, want %d:\n%s", part.name, rows, part.rows, out.String())
		}
	}
}
