package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"frfc/internal/experiment"
	"frfc/internal/status"
)

// warmBody is the campaign bench/run.sh's campaign workload resubmits: FR6 and
// VC8 over thirty loads, sixty small jobs.
const warmBody = `{"configs":["FR6","VC8"],"from":0.02,"to":0.6,"step":0.02,"sample":40,"warmup":100}`

// warmRig is a daemon wired the way frserve wires it — a status server
// registered with the service, the REST API on a loopback listener — whose
// database already answers every job of warmBody, so each roundTrip is a warm
// campaign: hash, index lookup, stored bytes.
type warmRig struct {
	s      *Service
	url    string
	client *http.Client
	buf    []byte // the client's read buffer, reused so the counts are the daemon's
}

// lineCounter counts the newlines written to it.
type lineCounter int

func (n *lineCounter) Write(p []byte) (int, error) {
	*n += lineCounter(bytes.Count(p, []byte{'\n'}))
	return len(p), nil
}

func newWarmRig(tb testing.TB) *warmRig {
	tb.Helper()
	st, err := status.Serve("127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	db, err := OpenDB(filepath.Join(tb.TempDir(), "db"), DBOptions{Fsync: FsyncPolicy{Mode: FsyncOff}})
	if err != nil {
		tb.Fatal(err)
	}
	s := New(db, Options{Workers: 2, Status: st})
	srv := httptest.NewServer(s.Handler())
	tb.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Close(ctx) //nolint:errcheck // best-effort teardown
		st.Close()
		db.Close()
	})

	// One real result stands in for all sixty: the warm path never looks
	// inside a line, and a real one has the size a real stream carries.
	var req SweepRequest
	if err := json.Unmarshal([]byte(warmBody), &req); err != nil {
		tb.Fatal(err)
	}
	if err := req.normalized(); err != nil {
		tb.Fatal(err)
	}
	jobs, err := req.jobs()
	if err != nil {
		tb.Fatal(err)
	}
	j0 := jobs.at(0)
	res := experiment.Run(j0.EffectiveSpec(), j0.Load)
	for i := 0; i < jobs.len(); i++ {
		j := jobs.at(i)
		if err := db.Put(j, j.Hash(), res); err != nil {
			tb.Fatal(err)
		}
	}
	return &warmRig{s: s, url: srv.URL, client: srv.Client(), buf: make([]byte, 32<<10)}
}

// roundTrip submits warmBody, waits for the campaign and reads its whole
// result stream, returning the number of lines.
func (r *warmRig) roundTrip(tb testing.TB) int {
	tb.Helper()
	resp, err := r.client.Post(r.url+"/campaigns", "application/json", strings.NewReader(warmBody))
	if err != nil {
		tb.Fatal(err)
	}
	var ack struct {
		ID string `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&ack)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusCreated {
		tb.Fatalf("POST /campaigns = %d, %v", resp.StatusCode, err)
	}
	resp, err = r.client.Get(r.url + "/campaigns/" + ack.ID + "/results?wait=1")
	if err != nil {
		tb.Fatal(err)
	}
	var lines lineCounter
	_, err = io.CopyBuffer(&lines, resp.Body, r.buf)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		tb.Fatalf("GET results = %d, %v", resp.StatusCode, err)
	}
	return int(lines)
}

// TestWarmCampaignCostIndependentOfHistory: what one warm submit→wait→stream
// allocates — counted, not timed — is the same with 5 finished campaigns
// behind it as with 500. A per-completion walk over every campaign ever
// served shows up here as bytes that grow with the history.
func TestWarmCampaignCostIndependentOfHistory(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts mean nothing under the race detector")
	}
	r := newWarmRig(t)
	measure := func(history int) (allocs, bytes float64) {
		for len(r.s.List()) < history {
			if n := r.roundTrip(t); n != 60 {
				t.Fatalf("warm stream has %d lines, want 60", n)
			}
		}
		const runs = 10
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs = testing.AllocsPerRun(runs, func() { r.roundTrip(t) })
		runtime.ReadMemStats(&after)
		return allocs, float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1)
	}
	a5, b5 := measure(5)
	a500, b500 := measure(500)
	t.Logf("one warm campaign: %.0f allocs / %.0f B behind 5 campaigns, %.0f allocs / %.0f B behind 500", a5, b5, a500, b500)
	if a500 > a5*1.05 || a500 < a5*0.95 {
		t.Errorf("allocations per warm campaign moved with history: %.0f behind 5 campaigns, %.0f behind 500", a5, a500)
	}
	if b500 > b5*1.05 {
		t.Errorf("bytes allocated per warm campaign grew with history: %.0f behind 5 campaigns, %.0f behind 500", b5, b500)
	}
}

// TestFinishedCampaignRetainsLittle: a finished campaign keeps its grid, its
// outcomes and its summary, not a harness.Job per job. Over 200 warm 60-job
// campaigns the live heap after a GC grows by at most 12 KiB per campaign; it
// grew 58.8 KiB when a campaign held its jobs.
func TestFinishedCampaignRetainsLittle(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts mean nothing under the race detector")
	}
	r := newWarmRig(t)
	for i := 0; i < 20; i++ {
		r.roundTrip(t)
	}
	live := func() int64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	before := live()
	const campaigns = 200
	for i := 0; i < campaigns; i++ {
		if n := r.roundTrip(t); n != 60 {
			t.Fatalf("warm stream has %d lines, want 60", n)
		}
	}
	per := float64(live()-before) / campaigns
	t.Logf("a finished warm campaign retains %.1f KiB", per/1024)
	if per > 12<<10 {
		t.Errorf("a finished warm campaign retains %.1f KiB, want <= 12", per/1024)
	}
}

// BenchmarkWarmCampaign is the in-process submit→stream rung of the ladder:
// the sixty-job FR6+VC8 grid resubmitted over a loopback listener, every job
// a dedup hit. Its cost must not depend on b.N — on how many campaigns the
// daemon has served.
func BenchmarkWarmCampaign(b *testing.B) {
	r := newWarmRig(b)
	r.roundTrip(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n := r.roundTrip(b); n != 60 {
			b.Fatalf("warm stream has %d lines, want 60", n)
		}
	}
}
