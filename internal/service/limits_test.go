package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"frfc/internal/harness"
)

// slowReq is a sweep request big and slow enough to still be active when
// the test checks admission against it.
func slowReq(name string, seed uint64) SweepRequest {
	return SweepRequest{
		Name: name, Configs: []string{"FR6"},
		From: 0.05, To: 0.6, Step: 0.05, // 12 jobs
		Sample: 1500, Warmup: 1500, Seed: seed,
	}
}

// newLimitedService starts a 1-worker service with the given limits.
func newLimitedService(t *testing.T, lim Limits) *Service {
	t.Helper()
	db, err := OpenDB(filepath.Join(t.TempDir(), "db"), DBOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s := New(db, Options{Workers: 1, Limits: lim})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Close(ctx) //nolint:errcheck // best-effort teardown
		db.Close()
	})
	return s
}

// TestEstimateJobsMatchesExpansion: the arithmetic pre-estimate that
// authorizes admission must agree with what jobs() actually expands — for
// explicit load lists and for every grid shape the CLI supports.
func TestEstimateJobsMatchesExpansion(t *testing.T) {
	reqs := []SweepRequest{
		{Configs: []string{"FR6"}, Loads: []float64{0.1, 0.2, 0.3}},
		{Configs: []string{"FR6", "VC8"}, From: 0.05, To: 0.95, Step: 0.05},
		{Configs: []string{"FR6"}, From: 0.1, To: 0.1, Step: 0.1},
		{Configs: []string{"FR6", "VC8", "WH"}, From: 0.02, To: 0.91, Step: 0.03},
		{Configs: []string{"FR6"}, From: 0.1, To: 0.9999, Step: 0.1},
	}
	for i, r := range reqs {
		est, err := r.grid().Count()
		if err != nil {
			t.Fatalf("req %d: estimate: %v", i, err)
		}
		jobs, err := r.jobs()
		if err != nil {
			t.Fatalf("req %d: jobs: %v", i, err)
		}
		if est != jobs.len() {
			t.Errorf("req %d: estimate %d != expansion %d", i, est, jobs.len())
		}
	}
	// Absurd grids estimate huge without allocating anything.
	huge := SweepRequest{Configs: []string{"FR6"}, From: 1e-9, To: 1, Step: 1e-12}
	if est, err := huge.grid().Count(); err != nil || est < 1<<30 {
		t.Fatalf("huge grid estimate = %d, %v", est, err)
	}
}

// TestSubmitPerCampaignCap: a grid over MaxJobsPerCampaign is rejected with
// ErrCapacity by arithmetic alone, and the rejection is counted.
func TestSubmitPerCampaignCap(t *testing.T) {
	s := newLimitedService(t, Limits{MaxJobsPerCampaign: 5})
	_, err := s.Submit(SweepRequest{Configs: []string{"FR6"}, From: 0.05, To: 0.6, Step: 0.05})
	if !errors.Is(err, ErrCapacity) {
		t.Fatalf("got %v, want ErrCapacity", err)
	}
	// A hostile grid that would expand to billions of jobs is rejected the
	// same way, instantly.
	_, err = s.Submit(SweepRequest{Configs: []string{"FR6"}, From: 1e-9, To: 1.0, Step: 1e-9})
	if !errors.Is(err, ErrCapacity) {
		t.Fatalf("hostile grid: got %v, want ErrCapacity", err)
	}
	sv, _ := s.snapshot()
	if sv.Rejected != 2 || sv.RejectedBy[rejectJobs] != 2 {
		t.Fatalf("rejected accounting: total=%d by=%v, want 2 under %q", sv.Rejected, sv.RejectedBy, rejectJobs)
	}
	// Within the cap still admits.
	c, err := s.Submit(SweepRequest{Configs: []string{"FR6"}, Loads: []float64{0.2}, Sample: 150, Warmup: 300})
	if err != nil {
		t.Fatalf("in-cap submit: %v", err)
	}
	waitDone(t, c)
}

// TestSubmitCampaignAndQueueCaps: MaxCampaigns and MaxQueuedJobs reject while
// earlier campaigns are still active, and admit again once they finish.
func TestSubmitCampaignAndQueueCaps(t *testing.T) {
	s := newLimitedService(t, Limits{MaxCampaigns: 1, MaxQueuedJobs: 20})
	c1, err := s.Submit(slowReq("first", 7))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(slowReq("second", 8)); !errors.Is(err, ErrCapacity) {
		t.Fatalf("second campaign: got %v, want ErrCapacity (MaxCampaigns)", err)
	}
	sv, _ := s.snapshot()
	if sv.RejectedBy[rejectCampaigns] != 1 {
		t.Fatalf("rejectedBy = %v, want 1 under %q", sv.RejectedBy, rejectCampaigns)
	}
	s.Cancel(c1.ID())
	waitDone(t, c1)
	// Capacity freed: admission opens again.
	c2, err := s.Submit(SweepRequest{Configs: []string{"FR6"}, Loads: []float64{0.2}, Sample: 150, Warmup: 300})
	if err != nil {
		t.Fatalf("post-drain submit: %v", err)
	}
	waitDone(t, c2)

	q := newLimitedService(t, Limits{MaxQueuedJobs: 15})
	c3, err := q.Submit(slowReq("fill", 9)) // 12 jobs
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Submit(slowReq("overflow", 10)); !errors.Is(err, ErrCapacity) {
		t.Fatalf("queue overflow: got %v, want ErrCapacity (MaxQueuedJobs)", err)
	}
	q.Cancel(c3.ID())
	waitDone(t, c3)
}

// TestCapsIgnoreFinishedCampaigns: admission measures load over the campaigns
// that still have work, so a few hundred finished ones behind the cap neither
// count against it nor are walked to enforce it.
func TestCapsIgnoreFinishedCampaigns(t *testing.T) {
	s := newLimitedService(t, Limits{MaxCampaigns: 1, MaxQueuedJobs: 20})
	const finished = 300
	one := SweepRequest{Configs: []string{"FR6"}, Loads: []float64{0.2}, Sample: 150, Warmup: 300}
	for i := 0; i < finished; i++ {
		c, err := s.Submit(one) // simulated once, a dedup hit ever after
		if err != nil {
			t.Fatalf("submission %d behind a cap of one active campaign: %v", i, err)
		}
		waitDone(t, c)
	}
	if n := len(s.sched.active()); n != 0 {
		t.Fatalf("%d campaigns still listed as active after all finished", n)
	}
	c, err := s.Submit(slowReq("live", 11))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(slowReq("over", 12)); !errors.Is(err, ErrCapacity) {
		t.Fatalf("second live campaign: got %v, want ErrCapacity (MaxCampaigns)", err)
	}
	if active, all := len(s.sched.active()), len(s.List()); active != 1 || all != finished+1 {
		t.Fatalf("admission walks %d campaigns of %d served, want 1 of %d", active, all, finished+1)
	}
	s.Cancel(c.ID())
	waitDone(t, c)
}

// TestRateLimiter: the token bucket under explicit time — burst, exhaustion,
// refill, and per-key isolation.
func TestRateLimiter(t *testing.T) {
	rl := newRateLimiter(1, 2) // 1 token/sec, burst 2
	t0 := time.Unix(1000, 0)
	if !rl.allow("a", t0) || !rl.allow("a", t0) {
		t.Fatal("burst of 2 not honored")
	}
	if rl.allow("a", t0) {
		t.Fatal("third immediate request allowed")
	}
	if !rl.allow("b", t0) {
		t.Fatal("independent client starved by a's bucket")
	}
	if rl.allow("a", t0.Add(500*time.Millisecond)) {
		t.Fatal("allowed before a full token refilled")
	}
	if !rl.allow("a", t0.Add(1100*time.Millisecond)) {
		t.Fatal("not allowed after refill")
	}
	// Refill never exceeds the burst.
	if !rl.allow("a", t0.Add(100*time.Hour)) || !rl.allow("a", t0.Add(100*time.Hour)) {
		t.Fatal("burst capacity lost")
	}
	if rl.allow("a", t0.Add(100*time.Hour)) {
		t.Fatal("bucket overfilled past burst")
	}
}

// TestSubmitRateLimited: SubmitFrom applies the per-client bucket; anonymous
// Submit (internal callers) bypasses it.
func TestSubmitRateLimited(t *testing.T) {
	s := newLimitedService(t, Limits{RatePerSec: 0.0001, Burst: 1})
	one := SweepRequest{Configs: []string{"FR6"}, Loads: []float64{0.2}, Sample: 150, Warmup: 300}
	c, err := s.SubmitFrom(one, "10.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, c)
	if _, err := s.SubmitFrom(one, "10.0.0.1"); !errors.Is(err, ErrCapacity) {
		t.Fatalf("second submit: got %v, want ErrCapacity (rate)", err)
	}
	if _, err := s.SubmitFrom(one, "10.0.0.2"); err != nil {
		t.Fatalf("different client rate-limited: %v", err)
	}
	if c2, err := s.Submit(one); err != nil {
		t.Fatalf("anonymous submit rate-limited: %v", err)
	} else {
		waitDone(t, c2)
	}
	sv, _ := s.snapshot()
	if sv.RejectedBy[rejectRate] != 1 {
		t.Fatalf("rejectedBy = %v, want 1 under %q", sv.RejectedBy, rejectRate)
	}
}

// TestSubmitHTTPStatusCodes (satellite fix): the submit endpoint
// distinguishes its failures — 400 for bad requests, 413 for oversized
// bodies, 429 + Retry-After for capacity, 503 once draining.
func TestSubmitHTTPStatusCodes(t *testing.T) {
	s := newLimitedService(t, Limits{MaxJobsPerCampaign: 2, MaxBodyBytes: 256})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	post := func(body string) *http.Response {
		t.Helper()
		resp, err := http.Post(srv.URL+"/campaigns", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	for _, body := range []string{
		`{"configs":["NOPE"],"loads":[0.2]}`,
		// Accepted with 201 before the grid validated by name and flow: every
		// job then failed with a captured panic.
		`{"configs":["VC8"],"loads":[0.2],"routing":"table"}`,
		`{"configs":["FR6-lead-3"],"loads":[0.2]}`,
	} {
		if resp := post(body); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("validation error %s: status %d, want 400", body, resp.StatusCode)
		}
	}
	if resp := post(`{"configs":["FR6"],"from":0.05,"to":0.9,"step":0.05}`); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("capacity: status %d, want 429", resp.StatusCode)
	} else if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	big := fmt.Sprintf(`{"configs":["FR6"],"loads":[0.2],"name":%q}`, strings.Repeat("x", 512))
	if resp := post(big); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413", resp.StatusCode)
	}
	s.StartDrain()
	if resp := post(`{"configs":["FR6"],"loads":[0.2]}`); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining: status %d, want 503", resp.StatusCode)
	}
	sv, _ := s.snapshot()
	for _, reason := range []string{rejectValidation, rejectJobs, rejectBody, rejectClosed} {
		if sv.RejectedBy[reason] == 0 {
			t.Errorf("rejection reason %q not counted: %v", reason, sv.RejectedBy)
		}
	}
}

// TestHealthAndReadiness: /healthz is liveness (always 200); /readyz flips
// to 503 when draining begins, and the snapshot mirrors it.
func TestHealthAndReadiness(t *testing.T) {
	s := newLimitedService(t, Limits{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	get := func(path string) int {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := get("/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz = %d, want 200", code)
	}
	if code := get("/readyz"); code != http.StatusOK {
		t.Fatalf("/readyz = %d, want 200", code)
	}
	if sv, _ := s.snapshot(); !sv.Ready {
		t.Fatal("snapshot not ready before drain")
	}
	s.StartDrain()
	if code := get("/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz while draining = %d, want 200 (liveness)", code)
	}
	if code := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz while draining = %d, want 503", code)
	}
	if sv, _ := s.snapshot(); sv.Ready {
		t.Fatal("snapshot still ready after StartDrain")
	}
	if _, err := s.Submit(SweepRequest{Configs: []string{"FR6"}, Loads: []float64{0.2}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit while draining: got %v, want ErrClosed", err)
	}
}

// TestWatchdogFlagsStuckCampaigns: a campaign with outstanding work and no
// recorded outcome past StuckAfter is flagged; any progress clears it. The
// sweep is driven directly with synthetic time, so nothing here depends on
// scheduler timing.
func TestWatchdogFlagsStuckCampaigns(t *testing.T) {
	db, err := OpenDB(filepath.Join(t.TempDir(), "db"), DBOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	s := &Service{
		db:        db,
		opts:      Options{Workers: 1, StuckAfter: time.Minute},
		sched:     newScheduler(),
		campaigns: map[string]*Campaign{},
		rejected:  map[string]int64{},
	}
	jobs := jobGrid{specs: []harness.Job{{Spec: tinySpec(), Seed: 60}}, loads: []float64{0.2, 0.21}}
	now := time.Now()
	c := &Campaign{
		id: "c1", jobs: jobs, created: now,
		finished: make(chan struct{}), state: StateRunning,
		outcomes: make([]outcome, 2),
		queue:    []int{0, 1}, weight: 1, lastProgress: now,
	}
	s.campaigns["c1"] = c
	s.order = []string{"c1"}
	s.sched.add(c)

	s.sweepStuck(now.Add(30 * time.Second))
	if c.view(now).Stuck {
		t.Fatal("flagged stuck before StuckAfter elapsed")
	}
	s.sweepStuck(now.Add(2 * time.Minute))
	if !c.view(now).Stuck {
		t.Fatal("not flagged stuck after StuckAfter")
	}
	sv, _ := s.snapshot()
	if sv.StuckCampaigns != 1 {
		t.Fatalf("stuckCampaigns = %d, want 1", sv.StuckCampaigns)
	}
	// Progress clears the flag.
	c.mu.Lock()
	c.queue = []int{1}
	c.mu.Unlock()
	c.record(0, outcome{done: true, hash: jobs.at(0).Hash()})
	if c.view(now).Stuck {
		t.Fatal("stuck not cleared by progress")
	}
	s.sweepStuck(time.Now())
	if c.view(now).Stuck {
		t.Fatal("re-flagged immediately after progress")
	}
}

// TestResultsMarshalErrorsSurfaced: a finished result whose line the database
// does not hold is counted into the campaign view (as marshalErrors) instead
// of silently truncating the stream.
func TestResultsMarshalErrorsSurfaced(t *testing.T) {
	s := newLimitedService(t, Limits{})
	c, err := s.Submit(SweepRequest{
		Configs: []string{"FR6"}, Loads: []float64{0.2, 0.25},
		Sample: 150, Warmup: 300,
	})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, c)

	// Lose exactly the first job's entry from the index.
	s.db.mu.Lock()
	delete(s.db.entries, c.jobs.at(0).Hash())
	s.db.mu.Unlock()

	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/campaigns/" + c.ID() + "/results")
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	body.ReadFrom(resp.Body) //nolint:errcheck // test buffer
	resp.Body.Close()
	if n := bytes.Count(body.Bytes(), []byte("\n")); n != 1 {
		t.Fatalf("stream has %d lines, want 1 (victim omitted)", n)
	}
	if v := c.view(time.Now()); v.MarshalErrors != 1 {
		t.Fatalf("view.MarshalErrors = %d, want 1", v.MarshalErrors)
	}
	// The campaign detail endpoint carries it too.
	var detail struct {
		MarshalErrors int `json:"marshalErrors"`
	}
	dresp, err := http.Get(srv.URL + "/campaigns/" + c.ID())
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(dresp.Body).Decode(&detail); err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if detail.MarshalErrors != 1 {
		t.Fatalf("detail marshalErrors = %d, want 1", detail.MarshalErrors)
	}
}
