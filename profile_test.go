package frfc

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// TestProfiledRunObserved covers the public self-profiling surface: enabling
// ObserverOptions.Profile populates the Result's Observed.Activity, the exports
// render, and the hot-router ranking is ordered.
func TestProfiledRunObserved(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec Spec
	}{
		{"FR6", FR6(FastControl, 5)},
		{"VC8", VC8(FastControl, 5)},
		{"WH", WormholeSpec(FastControl, 8, 5)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := smallSpec(t, tc.spec)
			obs := NewObserver(ObserverOptions{Profile: true, MetricsEpoch: 16})
			r := RunObserved(spec, 0.3, obs)
			if r.Observed == nil || r.Observed.Activity == nil || r.Observed.Waterfall != nil {
				t.Fatalf("sidecar of a profiled-only run: %+v", r.Observed)
			}
			a := r.Observed.Activity
			if a.Ticks == 0 || a.ActiveTicks == 0 {
				t.Fatalf("no profile activity: ticks=%d active=%d", a.Ticks, a.ActiveTicks)
			}
			if a.IdleFraction <= 0 || a.IdleFraction >= 1 {
				t.Fatalf("idle fraction %v out of (0,1) at light load", a.IdleFraction)
			}
			// Phase attribution lives inside the flit-reservation router;
			// the VC-lineage fabrics report component activity only.
			if tc.name == "FR6" && (a.SchedWork == 0 || a.ArbWork == 0 ||
				a.SwitchWork == 0 || a.CreditWork == 0) {
				t.Fatalf("phase attribution empty: sched=%d arb=%d switch=%d credit=%d",
					a.SchedWork, a.ArbWork, a.SwitchWork, a.CreditWork)
			}

			// Profiling is observation-only: the measurement must match
			// an unobserved Run bit-for-bit.
			plain := Run(spec, 0.3)
			stripped := r
			stripped.Observed = nil
			if stripped != plain {
				t.Errorf("profiled result diverged from plain Run:\nprofiled: %+v\nplain:    %+v", stripped, plain)
			}

			var pj bytes.Buffer
			if err := obs.WriteProfileJSON(&pj); err != nil {
				t.Fatalf("WriteProfileJSON: %v", err)
			}
			var prof struct {
				Radix int `json:"radix"`
				Nodes []struct {
					Ticks  []int64 `json:"ticks"`
					Active []int64 `json:"active"`
				} `json:"nodes"`
				Mem struct {
					Epochs int64 `json:"epochs"`
				} `json:"mem"`
			}
			if err := json.Unmarshal(pj.Bytes(), &prof); err != nil {
				t.Fatalf("profile JSON invalid: %v", err)
			}
			if prof.Radix != 4 || len(prof.Nodes) != 16 {
				t.Fatalf("profile header wrong: radix=%d nodes=%d", prof.Radix, len(prof.Nodes))
			}
			if prof.Mem.Epochs == 0 {
				t.Fatalf("no memory epochs sampled")
			}

			var csv bytes.Buffer
			if err := obs.WriteIdleCSV(&csv); err != nil {
				t.Fatalf("WriteIdleCSV: %v", err)
			}
			lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
			if len(lines) != 5 || !strings.HasPrefix(lines[0], "#") {
				t.Fatalf("idle CSV is not # + 4 rows:\n%s", csv.String())
			}

			hot := obs.HottestRouters(3)
			if len(hot) != 3 {
				t.Fatalf("HottestRouters(3) returned %d entries", len(hot))
			}
			for i := 1; i < len(hot); i++ {
				if hot[i].ActiveFraction > hot[i-1].ActiveFraction {
					t.Fatalf("hot ranking out of order: %+v", hot)
				}
			}
			if s := obs.ProfileSummary(); !strings.Contains(s, "idle") {
				t.Fatalf("ProfileSummary = %q", s)
			}
		})
	}
}

// TestProfileErrorsWhenNotProfiling: the profile exports must fail loudly —
// not silently emit nothing — on an observer without profiling armed.
func TestProfileErrorsWhenNotProfiling(t *testing.T) {
	obs := NewObserver(ObserverOptions{Metrics: true})
	var buf bytes.Buffer
	if err := obs.WriteProfileJSON(&buf); err == nil || !strings.Contains(err.Error(), "Profile") {
		t.Errorf("WriteProfileJSON err = %v", err)
	}
	if err := obs.WriteIdleCSV(&buf); err == nil || !strings.Contains(err.Error(), "Profile") {
		t.Errorf("WriteIdleCSV err = %v", err)
	}
	if hot := obs.HottestRouters(3); hot != nil {
		t.Errorf("HottestRouters on unprofiled observer = %v", hot)
	}
	if s := obs.ProfileSummary(); s != "" {
		t.Errorf("ProfileSummary on unprofiled observer = %q", s)
	}
	var nilObs *Observer
	if err := nilObs.WriteProfileJSON(&buf); err == nil {
		t.Errorf("nil observer WriteProfileJSON succeeded")
	}
}

// TestProfiledCampaignBitIdentical: ParallelOptions.Profile must not disturb
// the worker-count determinism contract.
func TestProfiledCampaignBitIdentical(t *testing.T) {
	spec := smallSpec(t, FR6(FastControl, 5))
	jobs := []Job{
		{Spec: spec, Load: 0.2},
		{Spec: spec, Load: 0.4},
		{Spec: smallSpec(t, VC8(FastControl, 5)), Load: 0.3},
	}
	serial, err := RunJobs(context.Background(), jobs, ParallelOptions{Workers: 1, Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunJobs(context.Background(), jobs, ParallelOptions{Workers: 4, Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		if serial[i].Err != "" || parallel[i].Err != "" {
			t.Fatalf("job %d failed: serial=%q parallel=%q", i, serial[i].Err, parallel[i].Err)
		}
		if o := serial[i].Result.Observed; o == nil || o.Activity == nil || o.Activity.Ticks == 0 {
			t.Errorf("job %d: no profile summary in campaign result", i)
		}
		if !reflect.DeepEqual(serial[i].Result, parallel[i].Result) {
			t.Errorf("job %d diverged between 1 and 4 workers:\n1w: %+v\n4w: %+v",
				i, serial[i].Result, parallel[i].Result)
		}
	}
}
