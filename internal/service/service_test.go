package service

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"frfc/internal/experiment"
	"frfc/internal/harness"
	"frfc/internal/metrics"
	"frfc/internal/status"
)

// waitDone blocks until the campaign finishes or the test times out.
func waitDone(t *testing.T, c *Campaign) {
	t.Helper()
	select {
	case <-c.Finished():
	case <-time.After(60 * time.Second):
		t.Fatalf("campaign %s did not finish: %+v", c.ID(), c.view(time.Now()))
	}
}

// resultsBytes fetches a campaign's result stream from the REST handler,
// without waiting: the lines of whatever has finished, in job order.
func resultsBytes(t *testing.T, s *Service, c *Campaign) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/campaigns/"+c.ID()+"/results", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET results of %s = %d: %s", c.ID(), rec.Code, rec.Body)
	}
	return rec.Body.Bytes()
}

// directStore runs the jobs one-shot through the harness with a single worker
// and a plain JSONL store, returning the store's bytes — the reference every
// service stream must match.
func directStore(t *testing.T, jobs []harness.Job) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "direct.jsonl")
	st, err := harness.OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := harness.RunJobs(context.Background(), jobs, harness.Options{Workers: 1, Store: st}); err != nil {
		t.Fatal(err)
	}
	st.Close()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// gridJobs expands specs over the same from/to/step accumulation loop
// cmd/sweep runs, independently of SweepRequest's expansion.
func gridJobs(specs []experiment.Spec, from, to, step float64) []harness.Job {
	var loads []float64
	for l := from; l <= to+1e-9; l += step {
		loads = append(loads, l)
	}
	var jobs []harness.Job
	for _, s := range specs {
		for _, l := range loads {
			jobs = append(jobs, harness.Job{Spec: s, Load: l})
		}
	}
	return jobs
}

// newTestService opens a DB in a temp dir and starts a service over it.
func newTestService(t *testing.T, workers int) (*Service, *DB) {
	t.Helper()
	db, err := OpenDB(filepath.Join(t.TempDir(), "db"), DBOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s := New(db, Options{Workers: workers})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Close(ctx) //nolint:errcheck // best-effort teardown
		db.Close()
	})
	return s, db
}

// TestConcurrentCampaignsByteIdentical is the tentpole guarantee: two
// campaigns multiplexed concurrently over a shared pool stream results
// byte-identical to serial one-shot harness runs of the same grids, and the
// small campaign finishes while the large one still has queued work.
func TestConcurrentCampaignsByteIdentical(t *testing.T) {
	// Reference runs: serial, single worker, plain store.
	bigSpec := experiment.FR6(experiment.FastControl, 5).Scaled(150, 300)
	smallSpec := experiment.VC8(experiment.FastControl, 5).Scaled(150, 300)
	wantBig := directStore(t, gridJobs([]experiment.Spec{bigSpec}, 0.05, 0.6, 0.05))
	wantSmall := directStore(t, gridJobs([]experiment.Spec{smallSpec}, 0.2, 0.3, 0.1))

	s, _ := newTestService(t, 2)
	big, err := s.Submit(SweepRequest{
		Configs: []string{"FR6"}, From: 0.05, To: 0.6, Step: 0.05,
		Sample: 150, Warmup: 300,
	})
	if err != nil {
		t.Fatal(err)
	}
	small, err := s.Submit(SweepRequest{
		Configs: []string{"VC8"}, From: 0.2, To: 0.3, Step: 0.1,
		Sample: 150, Warmup: 300,
	})
	if err != nil {
		t.Fatal(err)
	}
	if big.view(time.Now()).Jobs != 12 || small.view(time.Now()).Jobs != 2 {
		t.Fatalf("grid expansion wrong: big=%d small=%d", big.view(time.Now()).Jobs, small.view(time.Now()).Jobs)
	}

	waitDone(t, small)
	// Fair scheduling: the 2-job probe must drain while the 12-job sweep
	// still has work outstanding — a FIFO over one queue would starve it.
	if v := big.view(time.Now()); v.Done >= v.Jobs {
		t.Fatalf("small campaign finished only after the large one drained: %+v", v)
	}
	waitDone(t, big)

	if got := resultsBytes(t, s, big); !bytes.Equal(got, wantBig) {
		t.Fatalf("big campaign not byte-identical to serial run:\ngot:\n%s\nwant:\n%s", got, wantBig)
	}
	if got := resultsBytes(t, s, small); !bytes.Equal(got, wantSmall) {
		t.Fatalf("small campaign not byte-identical to serial run:\ngot:\n%s\nwant:\n%s", got, wantSmall)
	}
	if v := big.view(time.Now()); v.State != StateDone || v.Simulated != 12 || v.Failed != 0 {
		t.Fatalf("big campaign summary wrong: %+v", v)
	}
}

// TestResubmitDedupsInstantly: an identical campaign resolves entirely from
// the database — zero executions — and streams identical bytes.
func TestResubmitDedupsInstantly(t *testing.T) {
	s, db := newTestService(t, 2)
	req := SweepRequest{Configs: []string{"FR6"}, Loads: []float64{0.2, 0.3}, Sample: 150, Warmup: 300}
	first, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, first)

	second, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, second)
	v := second.view(time.Now())
	if v.Simulated != 0 || v.Cached != 2 {
		t.Fatalf("resubmission executed jobs: %+v", v)
	}
	if !bytes.Equal(resultsBytes(t, s, first), resultsBytes(t, s, second)) {
		t.Fatal("dedup-served results differ from originals")
	}
	if st := db.Stats(); st.Hits < 2 {
		t.Fatalf("dedup ledger hits = %d, want >= 2", st.Hits)
	}
}

// TestDedupLedgerCountsEachJobOnce: admission resolves the stored jobs and the
// workers the rest, and between them each job is exactly one hit or one miss,
// in DB.Stats and on /metrics, over a cold, a warm and a half-warm campaign.
// A fully stored campaign is done when Submit returns: its context is released
// and it never reached the scheduler.
func TestDedupLedgerCountsEachJobOnce(t *testing.T) {
	st, err := status.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	db, err := OpenDB(filepath.Join(t.TempDir(), "db"), DBOptions{Fsync: FsyncPolicy{Mode: FsyncOff}})
	if err != nil {
		t.Fatal(err)
	}
	s := New(db, Options{Workers: 2, Status: st})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Close(ctx) //nolint:errcheck // best-effort teardown
		db.Close()
	})
	scrape := func() string {
		resp, err := http.Get("http://" + st.Addr() + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var b bytes.Buffer
		if _, err := b.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}

	for _, step := range []struct {
		name                 string
		loads                []float64
		cached, hits, misses int
	}{
		{"cold", []float64{0.2, 0.3}, 0, 0, 2},
		{"warm", []float64{0.2, 0.3}, 2, 2, 2},
		{"half-warm", []float64{0.2, 0.3, 0.4, 0.5}, 2, 4, 4},
	} {
		c, err := s.Submit(SweepRequest{Configs: []string{"FR6"}, Loads: step.loads, Sample: 150, Warmup: 300})
		if err != nil {
			t.Fatal(err)
		}
		v := c.view(time.Now())
		if v.Cached != step.cached {
			t.Fatalf("%s: Submit returned %+v, want %d cached at admission", step.name, v, step.cached)
		}
		if step.cached == len(step.loads) && (v.State != StateDone || c.ctx.Err() == nil || len(s.sched.active()) != 0) {
			t.Fatalf("%s: Submit returned %+v (context released: %v, scheduled: %d), want done and never scheduled",
				step.name, v, c.ctx.Err() != nil, len(s.sched.active()))
		}
		waitDone(t, c)
		if v := c.view(time.Now()); v.Cached != step.cached || v.Simulated != len(step.loads)-step.cached {
			t.Fatalf("%s: %+v, want %d cached", step.name, v, step.cached)
		}
		if dbs := db.Stats(); dbs.Hits != int64(step.hits) || dbs.Misses != int64(step.misses) {
			t.Fatalf("%s: DB.Stats hits %d misses %d, want %d and %d", step.name, dbs.Hits, dbs.Misses, step.hits, step.misses)
		}
		body := scrape()
		for name, want := range map[string]int{"hits": step.hits, "misses": step.misses} {
			if line := fmt.Sprintf("\nfrfc_service_dedup_%s_total %d\n", name, want); !strings.Contains(body, line) {
				t.Fatalf("%s: /metrics lacks %q", step.name, strings.TrimSpace(line))
			}
		}
	}
}

// TestRestartResumesFromDB: results persisted by one service instance are
// served as dedup hits by a fresh instance over the same directory — the
// restart/recovery story, with zero re-executed jobs.
func TestRestartResumesFromDB(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	db, err := OpenDB(dir, DBOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s := New(db, Options{Workers: 2})
	subset := SweepRequest{Configs: []string{"FR6"}, Loads: []float64{0.2, 0.3}, Sample: 150, Warmup: 300}
	c, err := s.Submit(subset)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, c)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatal(err)
	}
	db.Close()

	// Restart over the same directory; the superset re-runs nothing it has.
	db2, err := OpenDB(dir, DBOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s2 := New(db2, Options{Workers: 2})
	defer func() {
		s2.Close(ctx) //nolint:errcheck // best-effort teardown
		db2.Close()
	}()
	superset := SweepRequest{Configs: []string{"FR6"}, Loads: []float64{0.2, 0.3, 0.4, 0.5}, Sample: 150, Warmup: 300}
	c2, err := s2.Submit(superset)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, c2)
	v := c2.view(time.Now())
	if v.Cached != 2 || v.Simulated != 2 || v.Failed != 0 {
		t.Fatalf("restart resume wrong: %+v, want 2 cached + 2 simulated", v)
	}
}

// TestCancelKeepsCompletedResults: cancelling mid-run retires queued jobs,
// cuts in-flight ones cooperatively, closes Finished, and keeps what
// completed. The service keeps serving other campaigns afterwards.
func TestCancelKeepsCompletedResults(t *testing.T) {
	s, _ := newTestService(t, 1)
	c, err := s.Submit(SweepRequest{
		Configs: []string{"FR6"}, From: 0.05, To: 0.8, Step: 0.05,
		Sample: 150, Warmup: 300,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Let at least one job land before cancelling.
	deadline := time.Now().Add(30 * time.Second)
	for c.view(time.Now()).Done == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if _, ok := s.Cancel(c.ID()); !ok {
		t.Fatal("Cancel did not find the campaign")
	}
	waitDone(t, c)
	v := c.view(time.Now())
	if v.State != StateCancelled {
		t.Fatalf("state = %s, want cancelled", v.State)
	}
	if v.Done != v.Jobs {
		t.Fatalf("cancelled campaign not fully recorded: %+v", v)
	}
	if v.Cancelled == 0 {
		t.Fatalf("no jobs recorded as cancelled: %+v", v)
	}
	if got := resultsBytes(t, s, c); v.Simulated > 0 && len(got) == 0 {
		t.Fatal("completed results discarded by cancel")
	}
	// Cancelling again is a no-op, not an error.
	if _, ok := s.Cancel(c.ID()); !ok {
		t.Fatal("second Cancel errored")
	}

	// The pool is healthy: a follow-up campaign completes.
	after, err := s.Submit(SweepRequest{Configs: []string{"VC8"}, Loads: []float64{0.2}, Sample: 150, Warmup: 300})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, after)
	if v := after.view(time.Now()); v.State != StateDone || v.Simulated != 1 {
		t.Fatalf("post-cancel campaign wrong: %+v", v)
	}
}

// TestHTTPResultsStream drives the REST surface end to end in-process:
// submit over HTTP, wait via ?wait=1, and check the streamed bytes are those
// of a one-shot store over the same jobs.
func TestHTTPResultsStream(t *testing.T) {
	spec := experiment.FR6(experiment.FastControl, 5).Scaled(150, 300)
	want := directStore(t, []harness.Job{{Spec: spec, Load: 0.2}, {Spec: spec, Load: 0.3}})
	s, _ := newTestService(t, 2)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/campaigns", "application/json",
		bytes.NewReader([]byte(`{"configs":["FR6"],"loads":[0.2,0.3],"sample":150,"warmup":300}`)))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST = %d", resp.StatusCode)
	}
	resp.Body.Close()

	resp, err = http.Get(srv.URL + "/campaigns/c1/results?wait=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got bytes.Buffer
	if _, err := got.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("HTTP stream differs from the one-shot store:\ngot:\n%s\nwant:\n%s", got.String(), want)
	}
}

// TestSchedulerWeightedShares: smooth WRR gives a weight-3 campaign three of
// every four picks against a weight-1 campaign, interleaved (not bursted).
func TestSchedulerWeightedShares(t *testing.T) {
	mk := func(id string, jobs, weight int) *Campaign {
		c := &Campaign{
			id: id, finished: make(chan struct{}), state: StateQueued,
			outcomes: make([]outcome, jobs),
			queue:    make([]int, jobs), weight: weight,
		}
		for i := range c.queue {
			c.queue[i] = i
		}
		return c
	}
	sched := newScheduler()
	heavy := mk("heavy", 9, 3)
	light := mk("light", 3, 1)
	sched.add(heavy)
	sched.add(light)

	var picks []string
	for i := 0; i < 12; i++ {
		c, _, ok := sched.pick()
		if !ok {
			t.Fatalf("pick %d found nothing", i)
		}
		picks = append(picks, c.id)
		// Return the slot so in-flight caps never interfere.
		c.mu.Lock()
		c.inflight--
		c.mu.Unlock()
	}
	counts := map[string]int{}
	for _, id := range picks {
		counts[id]++
	}
	if counts["heavy"] != 9 || counts["light"] != 3 {
		t.Fatalf("shares = %v over %v, want heavy 9 / light 3", counts, picks)
	}
	// Smoothness: the light campaign is served within every weight window,
	// never pushed to the tail.
	for w := 0; w < 3; w++ {
		window := picks[w*4 : w*4+4]
		n := 0
		for _, id := range window {
			if id == "light" {
				n++
			}
		}
		if n != 1 {
			t.Fatalf("window %d = %v, want exactly one light pick per 4", w, window)
		}
	}
}

// TestSchedulerInFlightCap: a campaign at its maxInFlight cap is ineligible
// until a slot frees.
func TestSchedulerInFlightCap(t *testing.T) {
	c := &Campaign{
		id: "capped", finished: make(chan struct{}), state: StateQueued,
		outcomes: make([]outcome, 4),
		queue:    []int{0, 1, 2, 3}, weight: 1, maxInflight: 2,
	}
	sched := newScheduler()
	sched.add(c)
	for i := 0; i < 2; i++ {
		if _, _, ok := sched.pick(); !ok {
			t.Fatalf("pick %d blocked below the cap", i)
		}
	}
	if _, _, ok := sched.pick(); ok {
		t.Fatal("pick succeeded above the in-flight cap")
	}
	sched.release(c)
	if _, _, ok := sched.pick(); !ok {
		t.Fatal("pick blocked after a slot freed")
	}
}

// TestSubmitValidation: malformed requests never reach the scheduler.
func TestSubmitValidation(t *testing.T) {
	s, _ := newTestService(t, 1)
	for _, req := range []SweepRequest{
		{},
		{Configs: []string{"NOPE"}, Loads: []float64{0.2}},
		{Configs: []string{"FR6"}},
		{Configs: []string{"FR6"}, Loads: []float64{-1}},
		{Configs: []string{"FR6"}, Loads: []float64{0.2}, Sample: 100},
		{Configs: []string{"FR6"}, Loads: []float64{0.2}, Routing: "zigzag"},
		{Configs: []string{"VC8"}, Loads: []float64{0.2}, Routing: "table"},
		{Configs: []string{"FR6"}, From: 0.1, To: 2.5, Step: 0.1},
		{Configs: []string{"FR6"}, Loads: []float64{0.2, 2.5}},
		{Configs: []string{"FR6-lead2x"}, Loads: []float64{0.2}},
		{Configs: []string{"FR6-lead-3"}, Loads: []float64{0.2}},
		{Configs: []string{"FR6"}, Loads: []float64{0.2}, Wiring: "bogus"},
		{Configs: []string{"FR6"}, Loads: []float64{0.2}, Weight: -1},
	} {
		if _, err := s.Submit(req); err == nil {
			t.Errorf("Submit(%+v) accepted", req)
		}
	}
	if len(s.List()) != 0 {
		t.Fatalf("rejected submissions registered campaigns: %v", s.List())
	}
}

// TestDocsPrintTheConfigVocabulary: docs/service.md lists the names the one
// resolver accepts, in the words its own error text uses.
func TestDocsPrintTheConfigVocabulary(t *testing.T) {
	raw, err := os.ReadFile("../../docs/service.md")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(raw, []byte(experiment.ConfigNames)) {
		t.Errorf("docs/service.md does not list the config vocabulary %q", experiment.ConfigNames)
	}
}

// TestWaterfallCampaign: a waterfall:true request decomposes every stored
// result into the seven lifecycle stages (summing exactly to the total),
// streams bytes identical to a one-shot harness run with the same option,
// and dedups against a provenance-off campaign of the same grid — the job
// hashes are observation-independent.
func TestWaterfallCampaign(t *testing.T) {
	spec := experiment.FR6(experiment.FastControl, 5).Scaled(150, 300)
	jobs := gridJobs([]experiment.Spec{spec}, 0.2, 0.3, 0.1)
	path := filepath.Join(t.TempDir(), "direct.jsonl")
	st, err := harness.OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := harness.RunJobs(context.Background(), jobs, harness.Options{
		Workers: 1, Store: st,
		Probe: func() *metrics.Probe { return metrics.NewProbe(0, false, false, true) },
	}); err != nil {
		t.Fatal(err)
	}
	st.Close()
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	s, db := newTestService(t, 2)
	c, err := s.Submit(SweepRequest{
		Configs: []string{"FR6"}, From: 0.2, To: 0.3, Step: 0.1,
		Sample: 150, Warmup: 300, Waterfall: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, c)
	for i := 0; i < c.jobs.len(); i++ {
		j := c.jobs.at(i)
		r, ok := db.Get(j.Hash())
		if !ok {
			t.Fatalf("job %v finished but is not in the database", j.Load)
		}
		if r.Observed == nil || r.Observed.Waterfall == nil {
			t.Fatalf("job %v stored without a waterfall sidecar: %+v", j.Load, r)
		}
		w := r.Observed.Waterfall
		if w.Packets == 0 || w.Total == 0 {
			t.Fatalf("job %v undecomposed: %+v", j.Load, *w)
		}
		if sum := w.Queue + w.Reserve + w.Arb + w.Stall + w.Sched + w.Link + w.Drain; sum != w.Total {
			t.Fatalf("job %v stage sum %d != total %d", j.Load, sum, w.Total)
		}
	}
	if got := resultsBytes(t, s, c); !bytes.Equal(got, want) {
		t.Fatalf("waterfall campaign not byte-identical to one-shot run:\ngot:\n%s\nwant:\n%s", got, want)
	}

	// The same grid with provenance off resolves entirely from the DB: the
	// decomposition rides on stored results, never on the job identity.
	off, err := s.Submit(SweepRequest{
		Configs: []string{"FR6"}, From: 0.2, To: 0.3, Step: 0.1,
		Sample: 150, Warmup: 300,
	})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, off)
	if v := off.view(time.Now()); v.Simulated != 0 || v.Cached != 2 {
		t.Fatalf("provenance-off resubmission re-executed jobs: %+v", v)
	}
	if st := db.Stats(); st.Hits < 2 {
		t.Fatalf("dedup ledger hits = %d, want >= 2", st.Hits)
	}
}
