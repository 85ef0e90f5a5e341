package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// testDaemon starts a daemon on an ephemeral port over a fresh database
// directory and tears it down with the test.
func testDaemon(t *testing.T, dbDir string) *daemon {
	t.Helper()
	return startDaemon(t, config{addr: "127.0.0.1:0", dbDir: dbDir, workers: 2}, io.Discard)
}

// startDaemon starts a daemon as cfg describes, logging to stderr, and tears
// it down with the test.
func startDaemon(t *testing.T, cfg config, stderr io.Writer) *daemon {
	t.Helper()
	d, err := start(cfg, stderr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.shutdown(10 * time.Second) }) //nolint:errcheck // double shutdown in happy paths
	return d
}

func doJSON(t *testing.T, method, url string, body string) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// campaignJSON is the subset of the campaign view the test asserts on.
type campaignJSON struct {
	ID        string `json:"id"`
	State     string `json:"state"`
	Jobs      int    `json:"jobs"`
	Done      int    `json:"done"`
	Simulated int    `json:"simulated"`
	Cached    int    `json:"cached"`
	Failed    int    `json:"failed"`
}

func submit(t *testing.T, base, body string) campaignJSON {
	t.Helper()
	code, b := doJSON(t, "POST", base+"/campaigns", body)
	if code != http.StatusCreated {
		t.Fatalf("POST /campaigns = %d: %s", code, b)
	}
	var c campaignJSON
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatalf("bad campaign JSON: %v\n%s", err, b)
	}
	return c
}

func results(t *testing.T, base, id string) []byte {
	t.Helper()
	code, b := doJSON(t, "GET", base+"/campaigns/"+id+"/results?wait=1", "")
	if code != http.StatusOK {
		t.Fatalf("GET results = %d: %s", code, b)
	}
	return b
}

// TestDaemonEndToEnd drives the full lifecycle over HTTP: submit a small
// sweep, wait for completion, fetch the result stream, resubmit and observe
// 100% dedup, restart the daemon over the same database and observe the
// results survive, and check /status, /metrics (the dedup ledger exactly, the
// waterfall exposition of an observed campaign) along the way — what CI's
// service smoke step asserted in curl and Python.
func TestDaemonEndToEnd(t *testing.T) {
	dbDir := filepath.Join(t.TempDir(), "db")
	d := testDaemon(t, dbDir)
	base := "http://" + d.addr()

	body := `{"name":"e2e","configs":["FR6","VC8"],"from":0.2,"to":0.4,"step":0.2,"sample":150,"warmup":300}`
	c := submit(t, base, body)
	if c.Jobs != 4 || c.ID == "" {
		t.Fatalf("campaign = %+v, want 4 jobs (2 configs x 2 loads)", c)
	}

	first := results(t, base, c.ID)
	lines := bytes.Count(first, []byte("\n"))
	if lines != 4 {
		t.Fatalf("results has %d lines, want 4:\n%s", lines, first)
	}

	// The detail view must show every job simulated, none cached or failed.
	code, b := doJSON(t, "GET", base+"/campaigns/"+c.ID, "")
	if code != http.StatusOK {
		t.Fatalf("GET campaign = %d: %s", code, b)
	}
	var detail campaignJSON
	if err := json.Unmarshal(b, &detail); err != nil {
		t.Fatal(err)
	}
	if detail.State != "done" || detail.Simulated != 4 || detail.Cached != 0 || detail.Failed != 0 {
		t.Fatalf("after first run: %+v", detail)
	}

	// Resubmitting the identical campaign must resolve entirely from the
	// dedup store — zero new executions — and stream byte-identical results.
	c2 := submit(t, base, body)
	second := results(t, base, c2.ID)
	if !bytes.Equal(first, second) {
		t.Fatalf("resubmitted results differ:\nfirst:\n%s\nsecond:\n%s", first, second)
	}
	_, b = doJSON(t, "GET", base+"/campaigns/"+c2.ID, "")
	if err := json.Unmarshal(b, &detail); err != nil {
		t.Fatal(err)
	}
	if detail.Simulated != 0 || detail.Cached != 4 {
		t.Fatalf("resubmission executed jobs: %+v", detail)
	}

	// /status carries the service section with the dedup ledger.
	_, b = doJSON(t, "GET", base+"/status", "")
	var snap struct {
		Service *struct {
			Campaigns int   `json:"campaigns"`
			DedupHits int64 `json:"dedupHits"`
			DBEntries int   `json:"dbEntries"`
		} `json:"service"`
	}
	if err := json.Unmarshal(b, &snap); err != nil {
		t.Fatalf("/status not JSON: %v\n%s", err, b)
	}
	if snap.Service == nil || snap.Service.Campaigns != 2 || snap.Service.DedupHits != 4 || snap.Service.DBEntries != 4 {
		t.Fatalf("service status wrong: %s", b)
	}
	_, b = doJSON(t, "GET", base+"/metrics", "")
	if !strings.Contains(string(b), "\nfrfc_service_dedup_hits_total 4\n") ||
		!strings.Contains(string(b), `frfc_campaign_jobs{campaign="c1"`) {
		t.Fatalf("/metrics missing service gauges:\n%s", b)
	}

	// Graceful shutdown, then a fresh daemon over the same database: the
	// resubmitted campaign must again be served entirely from disk.
	if err := d.shutdown(10 * time.Second); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	d2 := testDaemon(t, dbDir)
	base2 := "http://" + d2.addr()
	c3 := submit(t, base2, body)
	third := results(t, base2, c3.ID)
	if !bytes.Equal(first, third) {
		t.Fatalf("post-restart results differ from original")
	}
	_, b = doJSON(t, "GET", base2+"/campaigns/"+c3.ID, "")
	if err := json.Unmarshal(b, &detail); err != nil {
		t.Fatal(err)
	}
	if detail.Simulated != 0 || detail.Cached != 4 {
		t.Fatalf("restart re-executed jobs: %+v", detail)
	}

	// Latency provenance through the daemon: a waterfall campaign over a
	// point the database does not hold is simulated under the stage ledger,
	// and the merged decomposition reaches the Prometheus exposition.
	wf := submit(t, base2, `{"configs":["FR6"],"loads":[0.3],"sample":150,"warmup":300,"waterfall":true}`)
	if line := results(t, base2, wf.ID); !bytes.Contains(line, []byte(`"Waterfall":{"packets":150,`)) {
		t.Fatalf("waterfall campaign streamed no stage sidecar:\n%s", line)
	}
	_, b = doJSON(t, "GET", base2+"/metrics", "")
	if !strings.Contains(string(b), "\nfrfc_waterfall_packets 150\n") ||
		!strings.Contains(string(b), `frfc_latency_stage_cycles_total{stage="link"}`) {
		t.Fatalf("/metrics missing the waterfall exposition:\n%s", b)
	}
	if err := d2.shutdown(10 * time.Second); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
}

// TestDaemonValidation checks the API's error envelope.
func TestDaemonValidation(t *testing.T) {
	d := testDaemon(t, t.TempDir())
	base := "http://" + d.addr()

	for _, bad := range []string{
		`{`,
		`{"configs":[]}`,
		`{"configs":["NOPE"],"loads":[0.2]}`,
		`{"configs":["FR6"],"loads":[0.2],"sample":100}`,
		`{"configs":["FR6"],"loads":[0.2],"bogus":1}`,
	} {
		code, b := doJSON(t, "POST", base+"/campaigns", bad)
		if code != http.StatusBadRequest {
			t.Errorf("POST %s = %d, want 400 (%s)", bad, code, b)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(b, &e); err != nil || e.Error == "" {
			t.Errorf("POST %s: error envelope missing: %s", bad, b)
		}
	}
	if code, _ := doJSON(t, "GET", base+"/campaigns/c99", ""); code != http.StatusNotFound {
		t.Errorf("GET missing campaign = %d, want 404", code)
	}
	if code, _ := doJSON(t, "DELETE", base+"/campaigns/c99", ""); code != http.StatusNotFound {
		t.Errorf("DELETE missing campaign = %d, want 404", code)
	}

	code, b := doJSON(t, "GET", base+"/campaigns", "")
	if code != http.StatusOK || strings.TrimSpace(string(b)) != "[]" {
		// No campaigns submitted; the listing must be an empty array.
		var list []campaignJSON
		if err := json.Unmarshal(b, &list); err != nil || len(list) != 0 {
			t.Errorf("GET /campaigns = %d %s", code, b)
		}
	}
}

// TestRefusesBadCommandLine: a flag frserve does not define, a stray argument,
// an unknown fsync mode and a negative worker count (which used to run on
// NumCPU without a word) each exit 2 with a message naming the fault, before a
// database directory or a listener exists.
func TestRefusesBadCommandLine(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-report", "x"}, "flag provided but not defined: -report"},
		{[]string{"stray"}, "frserve: unexpected arguments: [stray]"},
		{[]string{"-fsync", "sometimes"}, `frserve: service: unknown fsync mode "sometimes" (want always|batch|off)`},
		{[]string{"-workers", "-3"}, "frserve: -workers must be >= 0 (got -3"},
	} {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			db := filepath.Join(t.TempDir(), "db")
			var stderr bytes.Buffer
			exit := make(chan int, 1)
			go func() { exit <- run(append([]string{"-addr", "127.0.0.1:0", "-db", db}, tc.args...), &stderr) }()
			select {
			case code := <-exit:
				if code != 2 || !strings.Contains(stderr.String(), tc.want) {
					t.Errorf("exit %d, stderr %q; want 2 and %q", code, stderr.String(), tc.want)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("run did not refuse: the daemon is serving")
			}
			if _, err := os.Stat(db); !os.IsNotExist(err) {
				t.Errorf("refused invocation created %s (stat: %v)", db, err)
			}
		})
	}
}
