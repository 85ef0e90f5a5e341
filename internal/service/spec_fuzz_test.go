package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"

	"frfc/internal/experiment"
)

// FuzzSweepRequest drives the request path POST /campaigns takes — strict JSON
// decode, the arithmetic count admission control checks, then the expansion —
// with arbitrary bytes. A body either fails to decode, is rejected with a
// *experiment.GridError, is refused by the job cap before anything is
// expanded, or normalises to a grid whose arithmetic count equals
// len(configs) × len(loads), whose every load is in (0,2] and whose every
// config resolved to a spec experiment.NewNetwork builds, on a 2x2 mesh,
// without a panic. It never panics, and a rejected from/to/step is never
// accumulated. The seeds are TestEstimateJobsMatchesExpansion's requests and
// the rows TestSubmitValidation rejects, and the leads past FR6's horizon;
// they run under plain go test.
func FuzzSweepRequest(f *testing.F) {
	for _, seed := range []string{
		`{"configs":["FR6"],"loads":[0.1,0.2,0.3]}`,
		`{"configs":["FR6","VC8"],"from":0.05,"to":0.95,"step":0.05}`,
		`{"configs":["FR6"],"from":0.1,"to":0.1,"step":0.1}`,
		`{"configs":["FR6","VC8","WH"],"from":0.02,"to":0.91,"step":0.03}`,
		`{"configs":["FR6"],"from":0.1,"to":0.9999,"step":0.1}`,
		`{"configs":[" SAF","VCT ","CS","FR6-lead4"],"wiring":"leading","pktlen":21,"loads":[2],"sample":100,"warmup":200,"seed":7,"routing":"xy","check":true,"waterfall":true,"weight":3,"maxInFlight":2,"name":"all"}`,
		`{"configs":["FR6"],"from":1e-9,"to":1,"step":1e-12}`,
		`{"configs":["FR6"],"from":1,"to":1,"step":1e-300}`,
		`{"configs":["FR6"],"loads":[0.2],"routing":"zigzag"}`,
		`{"configs":["VC8"],"loads":[0.2],"routing":"table"}`,
		`{"configs":["FR6"],"from":0.1,"to":2.5,"step":0.1}`,
		`{"configs":["FR6"],"loads":[-1]}`,
		`{"configs":["FR6-lead2x"],"loads":[0.2]}`,
		`{"configs":["FR6-lead-3"],"loads":[0.2]}`,
		`{"configs":["FR6-lead33"],"wiring":"leading","loads":[0.1]}`,
		`{"configs":["FR6-lead9223372036854775807"],"wiring":"leading","loads":[0.1]}`,
		`{"configs":["FR6-lead32"],"wiring":"leading","loads":[0.1]}`,
		`{"configs":["FR6"],"loads":[0.2],"sample":100}`,
		`{"configs":["FR6"],"loads":[0.2],"wiring":"bogus"}`,
		`{"configs":["FR6"],"loads":[0.2],"pktlen":-1}`,
		`{"configs":[],"loads":[0.2]}`,
		`{"configs":["FR6"],"loads":[0.2],"bogus":1}`,
		`{}`, `[]`, `{"configs":`,
	} {
		f.Add([]byte(seed))
	}
	const maxJobs = 4096 // stands in for Limits.MaxJobsPerCampaign
	f.Fuzz(func(t *testing.T, body []byte) {
		var req SweepRequest
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if dec.Decode(&req) != nil {
			return
		}
		rejected := func(err error) {
			var ge *experiment.GridError
			if !errors.As(err, &ge) {
				t.Fatalf("%s: rejected with %T %q, want a *GridError", body, err, err)
			}
		}
		g := req.grid()
		n, err := g.Count()
		if err != nil {
			rejected(err)
			return
		}
		if n > maxJobs {
			return
		}
		jobs, err := req.jobs()
		if err != nil {
			rejected(err)
			return
		}
		loads, err := g.LoadPoints()
		if err != nil {
			t.Fatalf("%s: jobs() expanded but LoadPoints fails: %v", body, err)
		}
		if n != len(req.Configs)*len(loads) || n != jobs.len() {
			t.Fatalf("%s: count %d, %d configs x %d loads, %d jobs", body, n, len(req.Configs), len(loads), jobs.len())
		}
		for i := 0; i < n; i++ {
			j := jobs.at(i)
			if l := loads[i%len(loads)]; j.Load != l || !(l > 0 && l <= 2) {
				t.Fatalf("%s: job %d load %g, grid load %g, want equal and in (0,2]", body, i, j.Load, l)
			}
			if j.Spec.Name == "" {
				t.Fatalf("%s: job %d has an unresolved spec", body, i)
			}
		}
		for _, j := range jobs.specs {
			func() {
				defer func() {
					if p := recover(); p != nil {
						t.Fatalf("%s: admitted %s, which does not build: %v", body, j.Spec.Name, p)
					}
				}()
				experiment.NewNetwork(j.Spec.WithMeshRadix(2), nil)
			}()
		}
	})
}
