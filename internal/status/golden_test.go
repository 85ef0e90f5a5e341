package status

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"frfc/internal/experiment"
	"frfc/internal/harness"
	"frfc/internal/metrics"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/ from the current output")

// Values that describe the host or the wall clock, not the simulation: the
// JSON keys of /status and the memory-sample families of /metrics.
var (
	hostKeys    = regexp.MustCompile(`"(uptimeSeconds|elapsedSeconds|etaSeconds|sinceSeconds|memAllocBytes|memEpochs|summary)": ("[^"]*"|[-+.e0-9]+)`)
	hostSamples = regexp.MustCompile(`(?m)^(frfc_profile_mem_\w+) .*$`)
)

// TestCampaignBodiesGolden pins the whole /metrics and /status bodies a
// campaign leaves behind: three fabrics (flit reservation, virtual channels,
// store-and-forward) at two loads, every job carrying counters, a profile
// registry and a stage ledger, merged by OnCollect — at one worker and at
// four, which must serve the same bytes because every merge is a sum or a
// maximum. Host-dependent values are masked. The other tests look for single
// lines; these files hold every family, label and value, so a refactor of a
// collector's merge or exposition that moves one fails here. Regenerate with
// `go test ./internal/status -run TestCampaignBodiesGolden -update` after a
// deliberate change to the simulator or to a format.
func TestCampaignBodiesGolden(t *testing.T) {
	var jobs []harness.Job
	for _, spec := range []experiment.Spec{
		experiment.FR6(experiment.FastControl, 5),
		experiment.VC8(experiment.FastControl, 5),
		experiment.PacketSwitchSpec("SAF2", experiment.StoreForward, experiment.FastControl, 2, 5),
	} {
		spec.MeshRadix = 4
		jobs = harness.AppendJobs(jobs, spec.Scaled(150, 300), []float64{0.1, 0.3})
	}
	for _, workers := range []int{1, 4} {
		s, err := Serve("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		results, err := harness.RunJobs(context.Background(), jobs, harness.Options{
			Workers:     workers,
			Progress:    s.OnProgress,
			JobStarted:  s.OnJobStarted,
			JobFinished: s.OnJobFinished,
			Collect:     s.OnCollect,
			Observe:     metrics.Options{Metrics: true, Profile: true, Waterfall: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, jr := range results {
			if jr.Err != "" {
				t.Fatalf("%s at %g: %s", jr.Job.Spec.Name, jr.Job.Load, jr.Err)
			}
		}
		_, prom := get(t, "http://"+s.Addr()+"/metrics")
		_, status := get(t, "http://"+s.Addr()+"/status")
		s.Close()

		for _, body := range []struct {
			name string
			got  []byte
		}{
			{"campaign-metrics.txt", hostSamples.ReplaceAll([]byte(prom), []byte("$1 0"))},
			{"campaign-status.json", hostKeys.ReplaceAll([]byte(status), []byte(`"$1": 0`))},
		} {
			golden := filepath.Join("testdata", body.name)
			if *update && workers == 1 {
				if err := os.WriteFile(golden, body.got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(body.got, want) {
				t.Errorf("workers=%d: %s differs from the golden file:\n--- got\n%s--- want\n%s", workers, body.name, body.got, want)
			}
		}
	}
}
