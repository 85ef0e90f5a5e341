package frfc

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// TestWaterfallRunObserved covers the public latency-provenance surface:
// enabling ObserverOptions.Waterfall populates the Result's
// Observed.Waterfall with an exact stage partition, the exports render, and the shared
// fields stay bit-identical to an unobserved Run.
func TestWaterfallRunObserved(t *testing.T) {
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
			spec.Check = true
			obs := NewObserver(ObserverOptions{Waterfall: true})
			r := RunObserved(spec, 0.3, obs)
			if r.Observed == nil || r.Observed.Waterfall == nil || r.Observed.Activity != nil {
				t.Fatalf("sidecar of a waterfall-only run: %+v", r.Observed)
			}
			w := r.Observed.Waterfall
			if w.Packets == 0 || w.Total == 0 {
				t.Fatalf("no waterfall data: packets=%d total=%d", w.Packets, w.Total)
			}
			if sum := w.Queue + w.Reserve + w.Arb + w.Stall + w.Sched + w.Link + w.Drain; sum != w.Total {
				t.Fatalf("stage sum %d != total %d", sum, w.Total)
			}

			// Latency provenance is observation-only: the measurement
			// must match an unobserved Run bit-for-bit.
			plain := Run(spec, 0.3)
			stripped := r
			stripped.Observed = nil
			if stripped != plain {
				t.Errorf("waterfall result diverged from plain Run:\nwf:    %+v\nplain: %+v", stripped, plain)
			}

			var wj bytes.Buffer
			if err := obs.WriteWaterfallJSON(&wj); err != nil {
				t.Fatalf("WriteWaterfallJSON: %v", err)
			}
			var wf struct {
				Packets int64 `json:"packets"`
				Stages  []struct {
					Stage  string `json:"stage"`
					Cycles int64  `json:"cycles"`
				} `json:"stages"`
			}
			if err := json.Unmarshal(wj.Bytes(), &wf); err != nil {
				t.Fatalf("waterfall JSON invalid: %v", err)
			}
			if wf.Packets != w.Packets || len(wf.Stages) != 7 {
				t.Fatalf("waterfall JSON header wrong: packets=%d stages=%d", wf.Packets, len(wf.Stages))
			}

			var csv bytes.Buffer
			if err := obs.WriteWaterfallCSV(&csv); err != nil {
				t.Fatalf("WriteWaterfallCSV: %v", err)
			}
			lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
			if len(lines) != 8 || !strings.HasPrefix(lines[0], "stage,") {
				t.Fatalf("waterfall CSV is not header + 7 rows:\n%s", csv.String())
			}

			if s := obs.WaterfallSummary(); !strings.Contains(s, "queue") || !strings.Contains(s, "drain") {
				t.Fatalf("WaterfallSummary = %q", s)
			}
		})
	}
}

// TestWaterfallErrorsWhenNotCollecting: the waterfall exports must fail
// loudly — not silently emit nothing — on an observer without the ledger.
func TestWaterfallErrorsWhenNotCollecting(t *testing.T) {
	obs := NewObserver(ObserverOptions{Metrics: true})
	var buf bytes.Buffer
	if err := obs.WriteWaterfallJSON(&buf); err == nil || !strings.Contains(err.Error(), "Waterfall") {
		t.Errorf("WriteWaterfallJSON err = %v", err)
	}
	if err := obs.WriteWaterfallCSV(&buf); err == nil || !strings.Contains(err.Error(), "Waterfall") {
		t.Errorf("WriteWaterfallCSV err = %v", err)
	}
	if s := obs.WaterfallSummary(); s != "" {
		t.Errorf("WaterfallSummary on plain observer = %q", s)
	}
	var nilObs *Observer
	if err := nilObs.WriteWaterfallJSON(&buf); err == nil {
		t.Errorf("nil observer WriteWaterfallJSON succeeded")
	}
}

// TestWaterfallCampaignBitIdentical: ParallelOptions.Waterfall must not
// disturb the worker-count determinism contract.
func TestWaterfallCampaignBitIdentical(t *testing.T) {
	spec := smallSpec(t, FR6(FastControl, 5))
	jobs := []Job{
		{Spec: spec, Load: 0.2},
		{Spec: spec, Load: 0.4},
		{Spec: smallSpec(t, VC8(FastControl, 5)), Load: 0.3},
	}
	serial, err := RunJobs(context.Background(), jobs, ParallelOptions{Workers: 1, Waterfall: true})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunJobs(context.Background(), jobs, ParallelOptions{Workers: 4, Waterfall: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		if serial[i].Err != "" || parallel[i].Err != "" {
			t.Fatalf("job %d failed: serial=%q parallel=%q", i, serial[i].Err, parallel[i].Err)
		}
		if o := serial[i].Result.Observed; o == nil || o.Waterfall == nil || o.Waterfall.Packets == 0 {
			t.Errorf("job %d: no waterfall summary in campaign result", i)
		}
		if !reflect.DeepEqual(serial[i].Result, parallel[i].Result) {
			t.Errorf("job %d diverged between 1 and 4 workers:\n1w: %+v\n4w: %+v",
				i, serial[i].Result, parallel[i].Result)
		}
	}
}
