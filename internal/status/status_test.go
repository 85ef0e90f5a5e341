package status

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"frfc/internal/experiment"
	"frfc/internal/harness"
	"frfc/internal/metrics"
	"frfc/internal/profile"
	"frfc/internal/waterfall"
)

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

func TestStatusSnapshot(t *testing.T) {
	s, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	spec := experiment.FR6(experiment.FastControl, 5)
	s.OnProgress(harness.Progress{Total: 10, Done: 3, Cached: 1, Failed: 1,
		Elapsed: 2 * time.Second, ETA: 5 * time.Second})
	s.OnJobStarted(harness.Job{Spec: spec, Load: 0.4}, "h4")
	s.OnJobStarted(harness.Job{Spec: spec, Load: 0.2}, "h2")

	code, body := get(t, "http://"+s.Addr()+"/status")
	if code != http.StatusOK {
		t.Fatalf("/status = %d", code)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/status is not JSON: %v\n%s", err, body)
	}
	if snap.Campaign == nil || snap.Campaign.Done != 3 || snap.Campaign.Total != 10 {
		t.Fatalf("campaign view wrong: %+v", snap.Campaign)
	}
	if len(snap.Running) != 2 || snap.Running[0].Load != 0.2 || snap.Running[1].Load != 0.4 {
		t.Fatalf("running jobs wrong (want sorted by load): %+v", snap.Running)
	}

	// Finishing a job retires it from the running set.
	s.OnJobFinished(harness.JobResult{Job: harness.Job{Spec: spec, Load: 0.2}, Hash: "h2"})
	_, body = get(t, "http://"+s.Addr()+"/status")
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Running) != 1 || snap.Running[0].Load != 0.4 {
		t.Fatalf("finished job still listed: %+v", snap.Running)
	}
}

// TestRunningJobsKeyedByHash: two jobs that share a name, load and seed but
// differ in another field — the sample size, as when two campaigns submit FR6
// at 0.2 with different samples — run as two jobs, and finishing one leaves
// the other listed. Keyed by name, load and seed, the first to finish took
// the other out of /status.
func TestRunningJobsKeyedByHash(t *testing.T) {
	s, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	a := harness.Job{Spec: experiment.FR6(experiment.FastControl, 5), Load: 0.2}
	b := a
	b.Spec.SamplePackets = 2 * a.Spec.SamplePackets
	s.OnJobStarted(a, a.Hash())
	s.OnJobStarted(b, b.Hash())
	s.OnJobFinished(harness.JobResult{Job: a, Hash: a.Hash()})
	_, body := get(t, "http://"+s.Addr()+"/status")
	var snap Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Running) != 1 || snap.Running[0].Spec != "FR6" || snap.Running[0].Load != 0.2 {
		t.Fatalf("running after one of two twins finished: %+v, want the other", snap.Running)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	s, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Before any registry arrives the exposition is valid but minimal.
	code, body := get(t, "http://"+s.Addr()+"/metrics")
	if code != http.StatusOK || !strings.Contains(body, "frfc_up 1") {
		t.Fatalf("empty /metrics = %d:\n%s", code, body)
	}

	reg := metrics.NewRegistry(0)
	reg.Init(2)
	reg.Nodes[1].Ejected = 10
	reg.Cycles = 100
	s.OnCollect(harness.Job{}, &metrics.Probe{Reg: reg})
	reg2 := metrics.NewRegistry(0)
	reg2.Init(2)
	reg2.Nodes[1].Ejected = 5
	reg2.Cycles = 50
	s.OnCollect(harness.Job{}, &metrics.Probe{Reg: reg2})

	_, body = get(t, "http://"+s.Addr()+"/metrics")
	if !strings.Contains(body, `frfc_ejected_flits_total{node="1",x="1",y="0"} 15`) {
		t.Fatalf("/metrics did not merge registries:\n%s", body)
	}
	if !strings.Contains(body, "frfc_cycles 150") {
		t.Fatalf("/metrics cycles not merged:\n%s", body)
	}
	// Every non-comment line is "name{labels} value" — valid exposition.
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if len(strings.Fields(line)) != 2 {
			t.Fatalf("malformed exposition line: %q", line)
		}
	}
}

func TestLiveRunView(t *testing.T) {
	s, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	reg := metrics.NewRegistry(0)
	reg.Init(2)
	reg.Nodes[0].Injected = 7
	s.OnLive(experiment.Live{Cycle: 4096, Phase: "measure", Tagged: 50, Delivered: 20,
		Packets: 20, MeanLatency: 31.5, Snapshot: metrics.Snapshot{Reg: reg}})

	_, body := get(t, "http://"+s.Addr()+"/status")
	var snap Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Run == nil || snap.Run.Phase != "measure" || snap.Run.Cycle != 4096 {
		t.Fatalf("run view wrong: %+v", snap.Run)
	}
	// The block is the published Live as it marshals: these keys, this order,
	// and nothing of the snapshot it carries.
	if want := `
  "run": {
    "cycle": 4096,
    "phase": "measure",
    "tagged": 50,
    "delivered": 20,
    "packets": 20,
    "meanLatency": 31.5
  }
}
`; !strings.HasSuffix(body, want) {
		t.Fatalf("/status does not end with the run block %s:\n%s", want, body)
	}
	_, body = get(t, "http://"+s.Addr()+"/metrics")
	if !strings.Contains(body, `frfc_injected_flits_total{node="0",x="0",y="0"} 7`) {
		t.Fatalf("/metrics missing live registry:\n%s", body)
	}

	// Root redirects to /status.
	code, _ := get(t, "http://"+s.Addr()+"/")
	if code != http.StatusOK { // after following the redirect
		t.Fatalf("/ = %d", code)
	}

	// A scrape in the middle of a real run reads the cycle of the snapshot it
	// is served from, on the counter registry as on the profile (frfc_cycles
	// used to read 0 until the run was done).
	spec := experiment.FR6(experiment.FastControl, 5).Scaled(150, 2*experiment.DefaultPublishEvery)
	spec.MeshRadix = 4
	var mid string
	probe := metrics.NewProbe(metrics.Options{Metrics: true, Profile: true})
	_, err = experiment.RunInstrumented(context.Background(), spec, 0.3, probe, func(lv experiment.Live) {
		s.OnLive(lv)
		if mid == "" && lv.Phase != "done" {
			_, mid = get(t, "http://"+s.Addr()+"/metrics")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(mid, "\nfrfc_cycles 4096\n") || !strings.Contains(mid, "\nfrfc_profile_cycles 4096\n") {
		t.Fatalf("mid-run /metrics does not read cycle 4096 on both registries:\n%s", mid)
	}
}

// TestRunLiveMatchesRunAndServes: a run publishing to the server, as frsim
// -status-addr wires it, measures what a bare run does, and leaves its final
// run view on /status and its counters on /metrics.
func TestRunLiveMatchesRunAndServes(t *testing.T) {
	s, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	spec := experiment.FR6(experiment.FastControl, 5).WithMeshRadix(4).WithSampling(150, 400)
	base := experiment.Run(spec, 0.3)
	live, err := experiment.RunInstrumented(context.Background(), spec, 0.3, metrics.NewProbe(metrics.Options{Metrics: true}), s.OnLive)
	if err != nil {
		t.Fatal(err)
	}
	if base != live {
		t.Fatalf("live publishing changed the simulation:\nbase: %+v\nlive: %+v", base, live)
	}

	_, body := get(t, "http://"+s.Addr()+"/status")
	var snap struct {
		Run *struct {
			Phase     string `json:"phase"`
			Delivered int    `json:"delivered"`
		} `json:"run"`
	}
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/status not JSON: %v\n%s", err, body)
	}
	if snap.Run == nil || snap.Run.Phase != "done" || snap.Run.Delivered != base.SampledDelivered {
		t.Fatalf("run view wrong: %s", body)
	}
	_, mbody := get(t, "http://"+s.Addr()+"/metrics")
	if !strings.Contains(mbody, "frfc_ejected_flits_total") {
		t.Fatalf("/metrics missing counters:\n%s", mbody[:min(len(mbody), 400)])
	}
}

// expositionLine matches one Prometheus 0.0.4 sample line: a metric name, an
// optional label set whose values contain no unescaped quote, backslash or
// newline, and a value. Anything outside it would need escaping we don't do.
var expositionLine = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"\\]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"\\]*")*\})? [^ ]+$`)

// TestMetricsContentTypeAndEscaping pins the scrape contract: the exact
// Prometheus 0.0.4 content type, and every sample line well-formed with
// label values that never require escaping.
func TestMetricsContentTypeAndEscaping(t *testing.T) {
	s, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	reg := metrics.NewRegistry(0)
	reg.Init(3)
	for i := range reg.Nodes {
		reg.Nodes[i].Injected = int64(i)
		reg.Nodes[i].Ejected = int64(i)
	}
	reg.Cycles = 256
	s.OnCollect(harness.Job{}, &metrics.Probe{Reg: reg})
	p := profile.NewRegistry(0)
	p.Init(3)
	p.RouterTick(4, 1, 2, 3, 4)
	p.Cycles = 256
	s.OnCollect(harness.Job{}, &metrics.Probe{Prof: p})

	resp, err := http.Get("http://" + s.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("/metrics Content-Type = %q", ct)
	}
	if sc := resp.Header.Get("Content-Type"); !strings.Contains(sc, "version=0.0.4") {
		t.Fatalf("not the 0.0.4 exposition: %q", sc)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(body)), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !expositionLine.MatchString(line) {
			t.Fatalf("exposition line needs escaping or is malformed: %q", line)
		}
	}
	// The /status endpoint declares JSON.
	resp, err = http.Get("http://" + s.Addr() + "/status")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("/status Content-Type = %q", ct)
	}
}

// TestProfileBlock: collected profile registries merge into the /status
// profile block and the /metrics exposition; a live snapshot replaces them.
func TestProfileBlock(t *testing.T) {
	s, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	mk := func(sched int) *profile.Registry {
		p := profile.NewRegistry(0)
		p.Init(2)
		p.RouterTick(1, sched, 0, 2, 1)
		p.ComponentTick(profile.CompRouter, 1, false)
		p.Cycles = 100
		return p
	}
	s.OnCollect(harness.Job{}, &metrics.Probe{Prof: mk(1)})
	s.OnCollect(harness.Job{}, &metrics.Probe{Prof: mk(2)})

	_, body := get(t, "http://"+s.Addr()+"/status")
	var snap Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Profile == nil {
		t.Fatalf("no profile block in /status:\n%s", body)
	}
	if snap.Profile.Ticks != 4 || snap.Profile.ActiveTicks != 2 {
		t.Fatalf("profile totals wrong: %+v", snap.Profile)
	}
	if snap.Profile.SchedWork != 3 || snap.Profile.SwitchWork != 4 || snap.Profile.CreditWork != 2 {
		t.Fatalf("merged phase work wrong: %+v", snap.Profile)
	}
	if snap.Profile.IdleFraction != 0.5 {
		t.Fatalf("idle fraction = %v, want 0.5", snap.Profile.IdleFraction)
	}
	if !strings.Contains(snap.Profile.Summary, "idle") {
		t.Fatalf("summary = %q", snap.Profile.Summary)
	}

	_, body = get(t, "http://"+s.Addr()+"/metrics")
	if !strings.Contains(body, `frfc_profile_phase_work_total{node="1",x="1",y="0",phase="sched"} 3`) {
		t.Fatalf("/metrics missing merged profile exposition:\n%s", body)
	}

	// A live publish replaces the campaign aggregate.
	lp := profile.NewRegistry(0)
	lp.Init(2)
	lp.RouterTick(0, 0, 0, 1, 0)
	lp.Cycles = 7
	s.OnLive(experiment.Live{Cycle: 7, Phase: "warmup", Snapshot: metrics.Snapshot{Prof: lp}})
	_, body = get(t, "http://"+s.Addr()+"/status")
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Profile == nil || snap.Profile.Ticks != 1 {
		t.Fatalf("live profile did not replace aggregate: %+v", snap.Profile)
	}
}

// TestConcurrentFeedsAndScrapes hammers every feed callback from goroutines
// while scraping both endpoints — the shape must stay stable and the race
// detector quiet (CI runs this with -race).
func TestConcurrentFeedsAndScrapes(t *testing.T) {
	s, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	spec := experiment.FR6(experiment.FastControl, 5)
	var wg sync.WaitGroup
	const iters = 50
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				j := harness.Job{Spec: spec, Load: float64(g*iters+i+1) / 1000}
				s.OnJobStarted(j, fmt.Sprint(g, i))
				s.OnProgress(harness.Progress{Total: 200, Done: i})
				reg := metrics.NewRegistry(0)
				reg.Init(2)
				reg.Nodes[0].Injected = 1
				s.OnCollect(j, &metrics.Probe{Reg: reg})
				p := profile.NewRegistry(0)
				p.Init(2)
				p.RouterTick(0, 1, 0, 1, 0)
				s.OnCollect(j, &metrics.Probe{Prof: p})
				s.OnJobFinished(harness.JobResult{Job: j, Hash: fmt.Sprint(g, i)})
			}
		}(g)
	}
	for i := 0; i < 20; i++ {
		code, body := get(t, "http://"+s.Addr()+"/status")
		if code != http.StatusOK {
			t.Fatalf("/status = %d", code)
		}
		var snap Snapshot
		if err := json.Unmarshal([]byte(body), &snap); err != nil {
			t.Fatalf("/status JSON broke under concurrency: %v\n%s", err, body)
		}
		if snap.UptimeSeconds < 0 {
			t.Fatalf("nonsense snapshot: %+v", snap)
		}
		code, _ = get(t, fmt.Sprintf("http://%s/metrics", s.Addr()))
		if code != http.StatusOK {
			t.Fatalf("/metrics = %d", code)
		}
	}
	wg.Wait()

	// After the dust settles the aggregates reflect every feed.
	_, body := get(t, "http://"+s.Addr()+"/status")
	var snap Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Profile == nil || snap.Profile.Ticks != 4*iters {
		t.Fatalf("profile aggregate lost feeds: %+v", snap.Profile)
	}
	if len(snap.Running) != 0 {
		t.Fatalf("finished jobs still running: %+v", snap.Running)
	}
}

// TestServiceViewAndMetrics: the campaign-service view appears in /status
// under "service"/"serviceCampaigns" and in /metrics as the frfc_service_*
// and frfc_campaign_* gauges, with label values escaped — absent until a
// source is registered, then computed by the source on every request.
func TestServiceViewAndMetrics(t *testing.T) {
	s, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	if _, body := get(t, "http://"+s.Addr()+"/status"); strings.Contains(body, `"service"`) {
		t.Fatalf("service view served with no source registered: %s", body)
	}
	var reads atomic.Int64
	s.ServiceSource(func() (ServiceView, []ServiceCampaign) {
		return ServiceView{
				Workers: 4, Campaigns: 2, Active: 1, QueueDepth: 7, InFlight: 2,
				DedupHits: 4 + reads.Add(1), DedupMisses: 9, DBEntries: 9, DBSegments: 2, DBHealed: 1,
				DBQuarantined: 3, StoreErrors: 2, Rejected: 11,
				RejectedBy:     map[string]int64{"rate": 6, "jobs": 5},
				StuckCampaigns: 1, Ready: false,
			}, []ServiceCampaign{
				{ID: "c1", Name: `probe "q\` + "\n", State: "running", Jobs: 10, Done: 3,
					Simulated: 2, Cached: 1, QueueDepth: 7, InFlight: 2, Weight: 3},
				{ID: "c2", Name: "done-one", State: "done", Jobs: 4, Done: 4, Simulated: 4},
			}
	})

	_, body := get(t, "http://"+s.Addr()+"/status")
	var snap struct {
		Service *struct {
			Workers    int              `json:"workers"`
			DedupHits  int64            `json:"dedupHits"`
			Rejected   int64            `json:"rejected"`
			RejectedBy map[string]int64 `json:"rejectedBy"`
			Ready      bool             `json:"ready"`
		} `json:"service"`
		Campaigns []struct {
			ID    string `json:"id"`
			State string `json:"state"`
			Done  int    `json:"done"`
		} `json:"serviceCampaigns"`
	}
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/status not JSON: %v\n%s", err, body)
	}
	if snap.Service == nil || snap.Service.Workers != 4 || snap.Service.DedupHits != 5 {
		t.Fatalf("service view wrong: %s", body)
	}
	if snap.Service.Rejected != 11 || snap.Service.RejectedBy["rate"] != 6 || snap.Service.Ready {
		t.Fatalf("hardening fields wrong: %s", body)
	}
	if len(snap.Campaigns) != 2 || snap.Campaigns[0].ID != "c1" || snap.Campaigns[1].State != "done" {
		t.Fatalf("serviceCampaigns wrong: %s", body)
	}

	_, mbody := get(t, "http://"+s.Addr()+"/metrics")
	for _, want := range []string{
		"frfc_service_workers 4",
		"frfc_service_queue_depth 7",
		"frfc_service_dedup_hits_total 6", // the second read, not a kept copy of the first
		"frfc_service_dedup_misses_total 9",
		"frfc_service_db_entries 9",
		"frfc_service_rejected_total 11",
		"frfc_service_quarantined_total 3",
		"frfc_service_store_errors_total 2",
		"frfc_service_stuck_campaigns 1",
		"frfc_service_ready 0",
		`frfc_campaign_jobs{campaign="c1",name="probe \"q\\\n",state="running"} 10`,
		`frfc_campaign_done{campaign="c2",name="done-one",state="done"} 4`,
	} {
		if !strings.Contains(mbody, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, mbody)
		}
	}
}

// TestServeOptsTimeouts: the HTTP server carries real protective timeouts —
// slowloris defense on headers, bounded idle — while write timeouts stay off
// by default so ?wait=1 long-polls are never cut mid-flight.
func TestServeOptsTimeouts(t *testing.T) {
	s, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := s.srv.ReadHeaderTimeout; got != 10*time.Second {
		t.Errorf("default ReadHeaderTimeout = %v, want 10s", got)
	}
	if got := s.srv.IdleTimeout; got != 2*time.Minute {
		t.Errorf("default IdleTimeout = %v, want 2m", got)
	}
	if s.srv.WriteTimeout != 0 || s.srv.ReadTimeout != 0 {
		t.Errorf("write/read timeouts default on (%v/%v), would kill long-polls",
			s.srv.WriteTimeout, s.srv.ReadTimeout)
	}

	s2, err := ServeOpts("127.0.0.1:0", ServerOptions{
		ReadHeaderTimeout: time.Second,
		ReadTimeout:       5 * time.Second,
		WriteTimeout:      6 * time.Second,
		IdleTimeout:       7 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.srv.ReadHeaderTimeout != time.Second || s2.srv.ReadTimeout != 5*time.Second ||
		s2.srv.WriteTimeout != 6*time.Second || s2.srv.IdleTimeout != 7*time.Second {
		t.Errorf("explicit options not honored: %+v", s2.srv)
	}
}

// TestHandleMountsExtraRoutes: Handle shares the status listener with
// caller-provided routes, method patterns included.
func TestHandleMountsExtraRoutes(t *testing.T) {
	s, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Handle("GET /extra", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprint(w, "mounted")
	}))
	code, body := get(t, "http://"+s.Addr()+"/extra")
	if code != http.StatusOK || body != "mounted" {
		t.Fatalf("mounted route = %d %q", code, body)
	}
	if code, _ := get(t, "http://"+s.Addr()+"/status"); code != http.StatusOK {
		t.Fatalf("/status broken by extra route: %d", code)
	}
}

// TestGracefulShutdown: Shutdown frees the port and later requests fail, and
// a second Shutdown is harmless.
func TestGracefulShutdown(t *testing.T) {
	s, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := s.Addr()
	if code, _ := get(t, "http://"+addr+"/status"); code != http.StatusOK {
		t.Fatalf("/status before shutdown = %d", code)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if _, err := http.Get("http://" + addr + "/status"); err == nil {
		t.Fatal("server still serving after Shutdown")
	}
	if err := s.Shutdown(ctx); err != nil && err != http.ErrServerClosed {
		t.Fatalf("second Shutdown: %v", err)
	}
}

// TestWaterfallBlock: collected stage ledgers fold into the /status waterfall
// block and the /metrics exposition; a live published view replaces them.
func TestWaterfallBlock(t *testing.T) {
	s, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	mk := func(pid uint64) *waterfall.Ledger {
		l := waterfall.New()
		l.InjectStart(pid, 0, 0, 2)
		l.HeadWire(pid, 0, 4)
		l.Eject(pid, 0, 10)
		l.Delivered(pid, 12)
		return l
	}
	s.OnCollect(harness.Job{}, &metrics.Probe{WF: mk(1)})
	s.OnCollect(harness.Job{}, &metrics.Probe{WF: mk(2)})

	_, body := get(t, "http://"+s.Addr()+"/status")
	var snap Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Waterfall == nil {
		t.Fatalf("no waterfall block in /status:\n%s", body)
	}
	if snap.Waterfall.Packets != 2 || snap.Waterfall.TotalCycles != 24 {
		t.Fatalf("waterfall totals wrong: %+v", snap.Waterfall)
	}
	if snap.Waterfall.MeanLatency != 12 || len(snap.Waterfall.Stages) != int(waterfall.NumStages) {
		t.Fatalf("waterfall view wrong: %+v", snap.Waterfall)
	}

	_, body = get(t, "http://"+s.Addr()+"/metrics")
	for _, want := range []string{
		"frfc_waterfall_packets 2",
		`frfc_latency_stage_cycles_total{stage="queue"} 4`,
		"frfc_latency_stage_mean",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}

	// A live publish replaces the campaign aggregate.
	s.OnLive(experiment.Live{Cycle: 7, Phase: "measure",
		Snapshot: metrics.Snapshot{Waterfall: &waterfall.Totals{Packets: 1, Total: 9, Link: 9}}})
	_, body = get(t, "http://"+s.Addr()+"/status")
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Waterfall == nil || snap.Waterfall.Packets != 1 || snap.Waterfall.MeanLatency != 9 {
		t.Fatalf("live waterfall did not replace aggregate: %+v", snap.Waterfall)
	}
}
