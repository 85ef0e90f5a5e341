// Package status serves a live, read-only view of a running campaign or
// single simulation over HTTP: a JSON snapshot of progress on /status and
// Prometheus text exposition of the merged per-router counter registry on
// /metrics.
//
// The server is fed through callback methods shaped to plug straight into
// harness.Options (OnProgress, OnJobStarted, OnJobFinished, OnCollect) and
// experiment.Instruments (OnLive). Every feed method and every request
// handler synchronizes on one mutex and touches only the server's own copies
// of the data, so serving never perturbs the simulation: the bit-identical
// result contract holds with the server enabled. The campaign-service view is
// the one thing not fed: the daemon registers a function (ServiceSource) and
// the handlers call it when a request arrives.
package status

import (
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"slices"
	"strings"
	"sync"
	"time"

	"frfc/internal/experiment"
	"frfc/internal/harness"
	"frfc/internal/metrics"
	"frfc/internal/topology"
)

// JobView describes one in-flight job in the /status snapshot.
type JobView struct {
	Spec string  `json:"spec"`
	Load float64 `json:"load"`
	Seed uint64  `json:"seed,omitempty"`
	// Since is how long the job has been running, in seconds.
	Since float64 `json:"sinceSeconds"`
}

// CampaignView is the harness progress portion of the /status snapshot.
type CampaignView struct {
	Total  int `json:"total"`
	Done   int `json:"done"`
	Cached int `json:"cached"`
	Failed int `json:"failed"`
	// ElapsedSeconds and ETASeconds mirror harness.Progress; ETA is a naive
	// projection, display only.
	ElapsedSeconds float64 `json:"elapsedSeconds"`
	ETASeconds     float64 `json:"etaSeconds"`
}

// ServiceCampaign is one campaign's row in the /status snapshot when the
// server fronts the campaign service (frserve).
type ServiceCampaign struct {
	ID    string `json:"id"`
	Name  string `json:"name"`
	State string `json:"state"`
	Jobs  int    `json:"jobs"`
	Done  int    `json:"done"`
	// Simulated jobs ran; Cached were served from the persistent result
	// database — the per-campaign dedup ledger.
	Simulated  int `json:"simulated"`
	Cached     int `json:"cached"`
	Failed     int `json:"failed"`
	QueueDepth int `json:"queueDepth"`
	InFlight   int `json:"inFlight"`
	Weight     int `json:"weight"`
}

// ServiceView is the service-wide portion of the /status snapshot: pool
// shape, aggregate queue pressure, and the persistent database's dedup
// accounting.
type ServiceView struct {
	Workers    int `json:"workers"`
	Campaigns  int `json:"campaigns"`
	Active     int `json:"active"`
	QueueDepth int `json:"queueDepth"`
	InFlight   int `json:"inFlight"`
	// DedupHits and DedupMisses count result-database lookups since the
	// daemon started; DBEntries/DBSegments/DBHealed describe the database
	// itself (healed = undecodable lines skipped during recovery).
	DedupHits   int64 `json:"dedupHits"`
	DedupMisses int64 `json:"dedupMisses"`
	DBEntries   int   `json:"dbEntries"`
	DBSegments  int   `json:"dbSegments"`
	DBHealed    int   `json:"dbHealed,omitempty"`
	// DBQuarantined counts corrupt lines isolated during recovery (failed
	// their recorded checksum); StoreErrors counts database writes that
	// failed since the daemon started.
	DBQuarantined int   `json:"dbQuarantined,omitempty"`
	StoreErrors   int64 `json:"storeErrors,omitempty"`
	// Rejected is total submissions refused by admission control;
	// RejectedBy breaks it down by reason (rate, campaigns, jobs, body,
	// validation, closed).
	Rejected   int64            `json:"rejected,omitempty"`
	RejectedBy map[string]int64 `json:"rejectedBy,omitempty"`
	// StuckCampaigns is the no-progress watchdog's current count.
	StuckCampaigns int `json:"stuckCampaigns,omitempty"`
	// Ready is false once the daemon starts draining (mirrors /readyz).
	Ready bool `json:"ready"`
}

// Snapshot is the /status response body.
type Snapshot struct {
	UptimeSeconds float64       `json:"uptimeSeconds"`
	Campaign      *CampaignView `json:"campaign,omitempty"`
	// Run is the single-run portion: the latest experiment.Live a run
	// published (cmd/frsim).
	Run     *experiment.Live `json:"run,omitempty"`
	Running []JobView        `json:"running,omitempty"`
	// View holds one block per collector that renders one — "profile", the
	// activity accounting, and "waterfall", per-stage cycle totals, means and
	// shares — merged across finished jobs (campaign) or last published
	// (single run).
	metrics.View
	// Service and Campaigns carry the campaign-service view when a
	// daemon (frserve) has registered a ServiceSource.
	Service   *ServiceView      `json:"service,omitempty"`
	Campaigns []ServiceCampaign `json:"serviceCampaigns,omitempty"`
}

// Server is the live status HTTP server. The zero value is not usable; call
// Serve.
type Server struct {
	srv   *http.Server
	mux   *http.ServeMux
	ln    net.Listener
	start time.Time

	mu       sync.Mutex
	campaign *CampaignView
	run      *experiment.Live
	running  map[string]inFlight // by job hash
	// collected is what the probes fed so far add up to: every finished
	// job's merged (campaign) or the latest published (single run).
	collected metrics.Snapshot
	// service, when set, computes the campaign-service view; it is called
	// per request, outside mu.
	service func() (ServiceView, []ServiceCampaign)
}

// ServerOptions tunes the HTTP server's protective timeouts. Zero fields
// take the documented defaults — chosen so slowloris-style clients cannot
// pin connections forever, while the deliberately long-lived requests the
// API serves (?wait=1 long-polls, result streams) are never cut mid-flight.
type ServerOptions struct {
	// ReadHeaderTimeout bounds how long a client may dribble headers;
	// 0 means 10s. This is the slowloris defense.
	ReadHeaderTimeout time.Duration
	// ReadTimeout bounds reading the entire request; 0 disables it (the
	// submit body is already capped by the service's MaxBodyBytes, and
	// every other endpoint is bodyless).
	ReadTimeout time.Duration
	// WriteTimeout bounds writing the response; 0 disables it — it must
	// not default on, because ?wait=1 long-polls legitimately hold the
	// response open for the lifetime of a campaign.
	WriteTimeout time.Duration
	// IdleTimeout bounds keep-alive idleness between requests; 0 means 2m.
	IdleTimeout time.Duration
}

// Serve starts a status server listening on addr (host:port; host may be
// empty, port 0 picks a free one) with default timeouts. It serves until
// Close.
func Serve(addr string) (*Server, error) {
	return ServeOpts(addr, ServerOptions{})
}

// ServeOpts is Serve with explicit timeout options.
func ServeOpts(addr string, o ServerOptions) (*Server, error) {
	if o.ReadHeaderTimeout == 0 {
		o.ReadHeaderTimeout = 10 * time.Second
	}
	if o.IdleTimeout == 0 {
		o.IdleTimeout = 2 * time.Minute
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("status: listen %s: %w", addr, err)
	}
	s := &Server{
		ln:      ln,
		start:   time.Now(),
		running: map[string]inFlight{},
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/status", s.handleStatus)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		http.Redirect(w, r, "/status", http.StatusFound)
	})
	s.srv = &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: o.ReadHeaderTimeout,
		ReadTimeout:       o.ReadTimeout,
		WriteTimeout:      o.WriteTimeout,
		IdleTimeout:       o.IdleTimeout,
	}
	s.mux = mux
	go s.srv.Serve(ln) //nolint:errcheck // Serve returns ErrServerClosed on Close
	return s, nil
}

// Addr reports the address the server is listening on (useful with port 0).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Handle mounts an additional handler on the server's mux — how frserve
// exposes its REST campaign API on the same listener as /status and
// /metrics. Patterns follow net/http ServeMux syntax (methods and wildcards
// included). Registering a pattern twice panics, as ServeMux does.
func (s *Server) Handle(pattern string, h http.Handler) { s.mux.Handle(pattern, h) }

// Close stops the server immediately, dropping in-flight requests.
func (s *Server) Close() error { return s.srv.Close() }

// Shutdown stops the server gracefully: the listener closes at once (so the
// ephemeral port frees immediately and tests stop leaking listeners), then
// in-flight requests get until ctx's deadline to finish before being cut.
func (s *Server) Shutdown(ctx context.Context) error { return s.srv.Shutdown(ctx) }

// inFlight is a simulating job: what /status shows of it, its hash and when
// it started.
type inFlight struct {
	view    JobView
	hash    string
	started time.Time
}

// OnProgress feeds a harness progress snapshot; plug into Options.Progress.
func (s *Server) OnProgress(p harness.Progress) {
	s.mu.Lock()
	s.campaign = &CampaignView{
		Total:          p.Total,
		Done:           p.Done,
		Cached:         p.Cached,
		Failed:         p.Failed,
		ElapsedSeconds: p.Elapsed.Seconds(),
		ETASeconds:     p.ETA.Seconds(),
	}
	s.mu.Unlock()
}

// OnJobStarted records a job as in flight under its hash, which tells apart
// two jobs that share a name, load and seed; plug into Options.JobStarted.
func (s *Server) OnJobStarted(j harness.Job, hash string) {
	s.mu.Lock()
	s.running[hash] = inFlight{JobView{Spec: j.Spec.Name, Load: j.Load, Seed: j.Seed}, hash, time.Now()}
	s.mu.Unlock()
}

// OnJobFinished retires a job from the in-flight set; plug into
// Options.JobFinished. A cached job never started, so it has nothing to
// retire.
func (s *Server) OnJobFinished(jr harness.JobResult) {
	if jr.Cached {
		return
	}
	s.mu.Lock()
	delete(s.running, jr.Hash)
	s.mu.Unlock()
}

// OnCollect merges whatever one finished job's probe carries — counter
// registry, self-profiling registry, stage ledger — into the server's
// aggregate; plug into Options.Collect. The probe is handed over by the worker
// after its run completes, so the merge races with nothing.
func (s *Server) OnCollect(_ harness.Job, p *metrics.Probe) {
	s.mu.Lock()
	s.collected.Merge(p)
	s.mu.Unlock()
}

// Feed returns o with the server plugged into its per-job hooks: a job is in
// flight on /status while it simulates (OnJobStarted, OnJobFinished) and its
// probe is merged into the aggregate when it finishes (OnCollect). Progress
// and Probe stay the caller's: what each job collects, and whether the
// campaign's progress (OnProgress) is fed too, differ between callers.
func (s *Server) Feed(o harness.Options) harness.Options {
	o.JobStarted, o.JobFinished, o.Collect = s.OnJobStarted, s.OnJobFinished, s.OnCollect
	return o
}

// ServiceSource registers the function that computes the campaign-service
// view. The server calls it once per /status or /metrics request and keeps no
// copy, so what it serves is never older than the service's own state; the
// function must be safe to call from any goroutine.
func (s *Server) ServiceSource(src func() (ServiceView, []ServiceCampaign)) {
	s.mu.Lock()
	s.service = src
	s.mu.Unlock()
}

// serviceView asks the registered source, if any, for the current view.
func (s *Server) serviceView() (*ServiceView, []ServiceCampaign) {
	s.mu.Lock()
	src := s.service
	s.mu.Unlock()
	if src == nil {
		return nil, nil
	}
	v, campaigns := src()
	return &v, campaigns
}

// OnLive replaces the single-run view and the collected snapshot; plug into
// experiment's Instruments.Publish. The Live snapshot is already a copy owned
// by the receiver.
func (s *Server) OnLive(lv experiment.Live) {
	s.mu.Lock()
	s.run = &lv
	s.collected = lv.Snapshot
	s.mu.Unlock()
}

func (s *Server) handleStatus(w http.ResponseWriter, _ *http.Request) {
	snap := Snapshot{UptimeSeconds: time.Since(s.start).Seconds()}
	snap.Service, snap.Campaigns = s.serviceView()
	s.mu.Lock()
	if s.campaign != nil {
		c := *s.campaign
		snap.Campaign = &c
	}
	snap.Run = s.run
	snap.View = s.collected.View()
	now := time.Now()
	running := make([]inFlight, 0, len(s.running))
	for _, f := range s.running {
		f.view.Since = now.Sub(f.started).Seconds()
		running = append(running, f)
	}
	s.mu.Unlock()

	// Stable ordering for humans and tests; the hash breaks a tie.
	slices.SortFunc(running, func(a, b inFlight) int {
		return cmp.Or(strings.Compare(a.view.Spec, b.view.Spec), cmp.Compare(a.view.Load, b.view.Load),
			cmp.Compare(a.view.Seed, b.view.Seed), strings.Compare(a.hash, b.hash))
	})
	for _, f := range running {
		snap.Running = append(snap.Running, f.view)
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(snap) //nolint:errcheck // client gone is not our problem
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	service, campaigns := s.serviceView()
	s.mu.Lock()
	defer s.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	// With nothing collected yet the exposition is just frfc_up — still valid
	// scrape output.
	e := topology.NewExposition(w)
	e.Scalar("frfc_up", "gauge", "Status server is running.", 1)
	if service != nil {
		writeServiceMetrics(e, service, campaigns)
	}
	s.collected.WritePrometheus(w) //nolint:errcheck // client gone is not our problem
}

// writeServiceMetrics renders the campaign-service gauges: service-wide
// pool/queue/dedup accounting plus one labelled series per campaign.
func writeServiceMetrics(e *topology.Exposition, v *ServiceView, campaigns []ServiceCampaign) {
	g := func(name, help string, value any) { e.Scalar(name, "gauge", help, value) }
	g("frfc_service_workers", "Shared worker pool size.", v.Workers)
	g("frfc_service_campaigns", "Campaigns known to the daemon.", v.Campaigns)
	g("frfc_service_campaigns_active", "Campaigns queued or running.", v.Active)
	g("frfc_service_queue_depth", "Jobs queued across all campaigns.", v.QueueDepth)
	g("frfc_service_inflight", "Jobs executing right now.", v.InFlight)
	g("frfc_service_dedup_hits_total", "Result-database lookups served from cache.", v.DedupHits)
	g("frfc_service_dedup_misses_total", "Result-database lookups that required simulation.", v.DedupMisses)
	g("frfc_service_db_entries", "Distinct job hashes in the result database.", v.DBEntries)
	g("frfc_service_db_segments", "Segment files in the result database.", v.DBSegments)
	g("frfc_service_rejected_total", "Submissions refused by admission control.", v.Rejected)
	g("frfc_service_quarantined_total", "Corrupt result lines isolated during recovery.", v.DBQuarantined)
	g("frfc_service_store_errors_total", "Result-database writes that failed.", v.StoreErrors)
	g("frfc_service_stuck_campaigns", "Campaigns with work but no recent progress.", v.StuckCampaigns)
	ready := 0
	if v.Ready {
		ready = 1
	}
	g("frfc_service_ready", "1 while accepting submissions, 0 once draining.", ready)
	for _, f := range []struct {
		name, help string
		of         func(*ServiceCampaign) int
	}{
		{"frfc_campaign_jobs", "Jobs in the campaign.", func(c *ServiceCampaign) int { return c.Jobs }},
		{"frfc_campaign_done", "Jobs recorded (any outcome).", func(c *ServiceCampaign) int { return c.Done }},
		{"frfc_campaign_cached", "Jobs served from the result database.", func(c *ServiceCampaign) int { return c.Cached }},
		{"frfc_campaign_queue_depth", "Jobs still queued.", func(c *ServiceCampaign) int { return c.QueueDepth }},
	} {
		e.Family(f.name, "gauge", f.help)
		for i := range campaigns {
			c := &campaigns[i]
			e.Sample(topology.Labels("campaign", c.ID, "name", c.Name, "state", c.State), f.of(c))
		}
	}
}
