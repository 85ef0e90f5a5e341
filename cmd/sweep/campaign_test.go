package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"frfc/internal/experiment"
	"frfc/internal/harness"
	"frfc/internal/status"
)

// The grid campaign's harness options as instrument builds them: what the
// status server, -profile and -waterfall add to every job, and that none of it
// moves a result.

func smallSpec(s experiment.Spec) experiment.Spec {
	return s.WithMeshRadix(4).WithSampling(150, 400)
}

// campaign runs jobs on the pool, instrumented as a grid sweep is.
func campaign(t *testing.T, jobs []harness.Job, workers int, st *status.Server, profile, waterfall bool) []harness.JobResult {
	t.Helper()
	results, err := harness.RunJobs(context.Background(), jobs, instrument(harness.Options{Workers: workers}, st, profile, waterfall))
	if err != nil {
		t.Fatal(err)
	}
	return results
}

// TestProfiledCampaignBitIdentical: -profile must not disturb the
// worker-count determinism contract.
func TestProfiledCampaignBitIdentical(t *testing.T) {
	spec := smallSpec(experiment.FR6(experiment.FastControl, 5))
	jobs := []harness.Job{
		{Spec: spec, Load: 0.2},
		{Spec: spec, Load: 0.4},
		{Spec: smallSpec(experiment.VC8(experiment.FastControl, 5)), Load: 0.3},
	}
	serial := campaign(t, jobs, 1, nil, true, false)
	parallel := campaign(t, jobs, 4, nil, true, false)
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

// TestWaterfallCampaignBitIdentical: -waterfall must not disturb the
// worker-count determinism contract.
func TestWaterfallCampaignBitIdentical(t *testing.T) {
	spec := smallSpec(experiment.FR6(experiment.FastControl, 5))
	jobs := []harness.Job{
		{Spec: spec, Load: 0.2},
		{Spec: spec, Load: 0.4},
		{Spec: smallSpec(experiment.VC8(experiment.FastControl, 5)), Load: 0.3},
	}
	serial := campaign(t, jobs, 1, nil, false, true)
	parallel := campaign(t, jobs, 4, nil, false, true)
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

// TestCampaignWithStatusBitIdentical: feeding a status server moves no result,
// and the server ends the campaign with its progress on /status and the jobs'
// merged counters on /metrics.
func TestCampaignWithStatusBitIdentical(t *testing.T) {
	spec := experiment.FR6(experiment.FastControl, 5).WithMeshRadix(4).WithSampling(150, 300)
	jobs := []harness.Job{{Spec: spec, Load: 0.2}, {Spec: spec, Load: 0.4}}

	bare := campaign(t, jobs, 2, nil, false, false)

	st, err := status.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		// Graceful shutdown must release the port without erroring.
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		if err := st.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
	}()
	served := campaign(t, jobs, 2, st, false, false)
	for i := range bare {
		// Elapsed is wall-clock and legitimately varies; everything the
		// simulation computed must match exactly.
		if !reflect.DeepEqual(bare[i].Result, served[i].Result) || bare[i].Hash != served[i].Hash {
			t.Fatalf("status server perturbed job %d:\nbare:   %+v\nserved: %+v", i, bare[i].Result, served[i].Result)
		}
	}

	body := httpGet(t, "http://"+st.Addr()+"/status")
	var snap struct {
		Campaign *struct {
			Total, Done int
		} `json:"campaign"`
	}
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Campaign == nil || snap.Campaign.Done != 2 || snap.Campaign.Total != 2 {
		t.Fatalf("campaign view wrong: %s", body)
	}
	mbody := httpGet(t, "http://"+st.Addr()+"/metrics")
	if !strings.Contains(mbody, "frfc_res_hits_total") {
		t.Fatalf("/metrics missing merged campaign counters:\n%s", mbody[:min(len(mbody), 400)])
	}
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// TestSaturationSearchMatchesBisection: the -adaptive search agrees with the
// serial bisection over plain runs.
func TestSaturationSearchMatchesBisection(t *testing.T) {
	s := experiment.FR6(experiment.FastControl, 5).WithMeshRadix(4).WithSampling(150, 300)
	want, _, err := experiment.Bisect(s, 0.05, func(s experiment.Spec, load float64) (experiment.Result, error) {
		return experiment.Run(s, load), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	pts, err := harness.SaturationSearch(context.Background(), []experiment.Spec{s}, 0.05, instrument(harness.Options{Workers: 2}, nil, false, false))
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
