package service

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"frfc/internal/harness"
	"frfc/internal/metrics"
	"frfc/internal/status"
)

// Options tunes a Service. The zero value runs with NumCPU workers, no
// per-job timeout, no status feed and no admission limits.
type Options struct {
	// Workers is the shared pool size; 0 means runtime.NumCPU(). The pool
	// is shared by every campaign; the scheduler divides it fairly.
	Workers int
	// Timeout, when nonzero, bounds each job's execution.
	Timeout time.Duration
	// Status, when non-nil, serves per-campaign progress, queue depth and
	// dedup accounting on /status and /metrics — computed from the service
	// when one of them is requested — and receives the in-flight job set
	// and merged per-router counters. Observation-only.
	Status *status.Server
	// Limits is the admission-control envelope; the zero value admits
	// everything (the pre-hardening behavior).
	Limits Limits
	// StuckAfter arms the service-level no-progress watchdog: an active
	// campaign with work outstanding but no job outcome recorded for this
	// long is flagged stuck in /status and the stuck-campaigns gauge — the
	// service analog of the simulator's PR-1 watchdog. 0 disables. The
	// watchdog scans every quarter of it, clamped to [100ms, 30s].
	StuckAfter time.Duration
}

// Service is the campaign daemon: it accepts sweep submissions, schedules
// their jobs fairly over one shared worker pool, dedups work through the
// persistent result database, and reports progress. Safe for concurrent use.
type Service struct {
	db      *DB
	opts    Options
	sched   *scheduler
	rate    *rateLimiter // nil when rate limiting is off
	baseCtx context.Context
	cancel  context.CancelFunc
	wg      sync.WaitGroup

	// admit serializes admission decisions: the capacity check and the
	// registration it authorizes happen under one lock, so two submissions
	// cannot both squeeze through the same last slot. Reads (Get, List)
	// and workers never touch it.
	admit sync.Mutex

	mu        sync.Mutex
	campaigns map[string]*Campaign
	order     []string
	nextID    int
	closing   bool
	rejected  map[string]int64 // submissions rejected, by reason
}

// New starts a service over the given database and spawns its worker pool.
func New(db *DB, o Options) *Service {
	if o.Workers <= 0 {
		o.Workers = runtime.NumCPU()
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Service{
		db: db, opts: o, sched: newScheduler(),
		baseCtx: ctx, cancel: cancel,
		campaigns: make(map[string]*Campaign),
		rejected:  make(map[string]int64),
	}
	if o.Limits.RatePerSec > 0 {
		s.rate = newRateLimiter(o.Limits.RatePerSec, o.Limits.Burst)
	}
	if o.Status != nil {
		o.Status.ServiceSource(s.snapshot)
	}
	for i := 0; i < o.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	if o.StuckAfter > 0 {
		s.wg.Add(1)
		go s.watchdog()
	}
	return s
}

// Workers reports the shared pool size.
func (s *Service) Workers() int { return s.opts.Workers }

// Submit validates a sweep request, resolves every job the result database
// already holds as a dedup hit, registers the campaign's remaining jobs with
// the fair scheduler and returns it. A campaign whose every job is stored is
// done when Submit returns. Equivalent to SubmitFrom with no client identity
// (rate limits don't apply); errors wrap ErrCapacity or ErrClosed when the
// rejection is about the service rather than the request.
func (s *Service) Submit(req SweepRequest) (*Campaign, error) {
	return s.SubmitFrom(req, "")
}

// SubmitFrom is Submit with a client identity for per-client rate limiting
// (the HTTP layer passes the peer address). Admission runs cheapest check
// first — token bucket, then an arithmetic job-count estimate against the
// caps, all before the grid is allocated — so rejection costs nothing no
// matter how large the request claims to be.
func (s *Service) SubmitFrom(req SweepRequest, client string) (*Campaign, error) {
	if s.rate != nil && client != "" && !s.rate.allow(client, time.Now()) {
		s.noteRejected(rejectRate)
		return nil, fmt.Errorf("client %s over submission rate: %w", client, ErrCapacity)
	}
	c, completed, err := s.admitCampaign(req)
	if completed {
		s.campaignDone(c)
	}
	return c, err
}

// admitCampaign is SubmitFrom's admission under the admit lock. Stored jobs
// are recorded as cached before the campaign reaches the scheduler, so only
// misses take a worker and a WRR pick; completed reports that none was left.
func (s *Service) admitCampaign(req SweepRequest) (c *Campaign, completed bool, err error) {
	s.admit.Lock()
	defer s.admit.Unlock()
	s.mu.Lock()
	closing := s.closing
	s.mu.Unlock()
	if closing {
		s.noteRejected(rejectClosed)
		return nil, false, ErrClosed
	}
	est, err := req.grid().Count()
	if err != nil {
		s.noteRejected(rejectValidation)
		return nil, false, fmt.Errorf("invalid campaign: %w", err)
	}
	lim := s.opts.Limits
	if lim.MaxJobsPerCampaign > 0 && est > lim.MaxJobsPerCampaign {
		s.noteRejected(rejectJobs)
		return nil, false, fmt.Errorf("campaign expands to ~%d jobs, per-campaign cap is %d: %w",
			est, lim.MaxJobsPerCampaign, ErrCapacity)
	}
	if lim.MaxCampaigns > 0 || lim.MaxQueuedJobs > 0 {
		active, queued := s.loadLocked()
		if lim.MaxCampaigns > 0 && active >= lim.MaxCampaigns {
			s.noteRejected(rejectCampaigns)
			return nil, false, fmt.Errorf("%d campaigns active, cap is %d: %w",
				active, lim.MaxCampaigns, ErrCapacity)
		}
		if lim.MaxQueuedJobs > 0 && queued+est > lim.MaxQueuedJobs {
			s.noteRejected(rejectJobs)
			return nil, false, fmt.Errorf("%d jobs queued and this campaign adds ~%d, cap is %d: %w",
				queued, est, lim.MaxQueuedJobs, ErrCapacity)
		}
	}
	if err := (&req).normalized(); err != nil {
		s.noteRejected(rejectValidation)
		return nil, false, fmt.Errorf("invalid campaign: %w", err)
	}
	jobs, err := req.jobs()
	if err != nil {
		s.noteRejected(rejectValidation)
		return nil, false, fmt.Errorf("invalid campaign: %w", err)
	}
	n := jobs.len()
	// The estimate authorized the admission; hold the expansion to it in
	// case the two ever disagree at a float boundary.
	if lim.MaxJobsPerCampaign > 0 && n > lim.MaxJobsPerCampaign {
		s.noteRejected(rejectJobs)
		return nil, false, fmt.Errorf("campaign expands to %d jobs, per-campaign cap is %d: %w",
			n, lim.MaxJobsPerCampaign, ErrCapacity)
	}

	now := time.Now()
	c = &Campaign{
		req: req, jobs: jobs, created: now,
		finished:     make(chan struct{}),
		state:        StateQueued,
		outcomes:     make([]outcome, n),
		weight:       req.Weight,
		maxInflight:  req.MaxInFlight,
		lastProgress: now,
	}
	for i := 0; i < n; i++ {
		hash := jobs.at(i).Hash()
		if r, ok := s.db.peek(hash); ok {
			completed = c.record(i, outcome{done: true, cached: true, hash: hash, latency: r.AvgLatency})
		} else {
			c.queue = append(c.queue, i)
		}
	}

	s.mu.Lock()
	if s.closing {
		s.mu.Unlock()
		s.noteRejected(rejectClosed)
		return nil, false, ErrClosed
	}
	s.nextID++
	c.id = fmt.Sprintf("c%d", s.nextID)
	c.ctx, c.cancel = context.WithCancel(s.baseCtx)
	s.campaigns[c.id] = c
	s.order = append(s.order, c.id)
	s.mu.Unlock()

	if !completed {
		s.sched.add(c)
	}
	return c, completed, nil
}

// noteRejected counts one rejected submission by reason.
func (s *Service) noteRejected(reason string) {
	s.mu.Lock()
	s.rejected[reason]++
	s.mu.Unlock()
}

// loadLocked measures current admission load: active campaigns and their
// undispatched jobs. Caller holds s.admit, so no admission races this; the
// workers only ever shrink it.
func (s *Service) loadLocked() (active, queued int) {
	for _, c := range s.sched.active() {
		c.mu.Lock()
		if c.state == StateQueued || c.state == StateRunning {
			active++
			queued += len(c.queue)
		}
		c.mu.Unlock()
	}
	return active, queued
}

// watchdog periodically flags campaigns that hold work but make no progress
// — a wedged worker, a job stuck past any reasonable runtime — so operators
// see "stuck" in /status and the frfc_service_stuck_campaigns gauge instead
// of a silently frozen queue. Recording any outcome clears the flag.
func (s *Service) watchdog() {
	defer s.wg.Done()
	t := time.NewTicker(min(max(s.opts.StuckAfter/4, 100*time.Millisecond), 30*time.Second))
	defer t.Stop()
	for {
		select {
		case <-s.baseCtx.Done():
			return
		case now := <-t.C:
			s.sweepStuck(now)
		}
	}
}

// sweepStuck marks newly stuck campaigns.
func (s *Service) sweepStuck(now time.Time) {
	for _, c := range s.sched.active() {
		c.mu.Lock()
		active := c.state == StateQueued || c.state == StateRunning
		working := c.inflight > 0 || len(c.queue) > 0
		if active && working && !c.stuck && now.Sub(c.lastProgress) > s.opts.StuckAfter {
			c.stuck = true
		}
		c.mu.Unlock()
	}
}

// StartDrain flips the service to not-ready: /readyz starts failing and new
// submissions are rejected with ErrClosed, while the workers keep draining
// already-admitted campaigns. frserve calls this at the top of shutdown so
// load balancers stop routing before the listener disappears.
func (s *Service) StartDrain() {
	s.mu.Lock()
	s.closing = true
	s.mu.Unlock()
}

// Ready reports whether the service is accepting submissions — the /readyz
// answer. False once draining begins.
func (s *Service) Ready() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.closing
}

// Get returns a campaign by ID.
func (s *Service) Get(id string) (*Campaign, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.campaigns[id]
	return c, ok
}

// List snapshots every campaign's summary, in submission order.
func (s *Service) List() []CampaignView {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	s.mu.Unlock()
	now := time.Now()
	out := make([]CampaignView, 0, len(ids))
	for _, id := range ids {
		if c, ok := s.Get(id); ok {
			out = append(out, c.view(now))
		}
	}
	return out
}

// Cancel cancels a campaign cooperatively: queued jobs are retired
// immediately as cancelled, in-flight jobs see their context end (the
// simulator polls it every 1024 cycles) and record as cancelled. Results
// already completed are kept. Cancelling a finished campaign is a no-op.
func (s *Service) Cancel(id string) (*Campaign, bool) {
	c, ok := s.Get(id)
	if !ok {
		return nil, false
	}
	c.mu.Lock()
	if c.state == StateDone || c.state == StateCancelled {
		c.mu.Unlock()
		return c, true
	}
	c.state = StateCancelled
	c.mu.Unlock()
	c.cancel()
	idxs := s.sched.drain(c)
	completed := false
	for _, idx := range idxs {
		if c.record(idx, outcome{done: true, skipped: true, err: "campaign cancelled"}) {
			completed = true
		}
	}
	if completed {
		s.campaignDone(c)
	}
	return c, true
}

// worker is one shared-pool goroutine: it repeatedly asks the fair scheduler
// for the next job from any campaign and resolves it through the harness's
// single-job path, with the persistent database as the dedup store.
func (s *Service) worker() {
	defer s.wg.Done()
	// What a simulated job carries: counters when a status server collects
	// them, the stage ledger when the job's campaign asked for one. Built
	// here, once, so the per-job path — warm jobs above all — makes nothing.
	st := s.opts.Status
	base := harness.Options{Store: s.db, Timeout: s.opts.Timeout}
	if st != nil {
		base = st.Feed(base)
		base.Observe = metrics.Options{Metrics: true}
	}
	decomposing := base
	decomposing.Observe.Waterfall = true
	for {
		c, idx, ok := s.sched.next()
		if !ok {
			return
		}
		j := c.jobs.at(idx)
		ho := base
		if c.req.Waterfall {
			ho = decomposing
		}
		jr := harness.ExecOne(c.ctx, j, ho)
		completed := c.record(idx, outcome{
			done: true, cached: jr.Cached, hash: jr.Hash, err: jr.Err, latency: jr.Result.AvgLatency,
		})
		s.sched.release(c)
		if completed {
			s.campaignDone(c)
		}
	}
}

// campaignDone releases a finished campaign's context, which nothing runs
// under any more.
func (s *Service) campaignDone(c *Campaign) {
	c.cancel()
}

// snapshot assembles the service-wide view and per-campaign rows, in
// submission order, for /status and /metrics. The status server calls it
// when one of those is requested; nothing is computed per job completion.
func (s *Service) snapshot() (status.ServiceView, []status.ServiceCampaign) {
	views := s.List()
	dbs := s.db.Stats()
	s.mu.Lock()
	rejectedBy := make(map[string]int64, len(s.rejected))
	var rejected int64
	for reason, n := range s.rejected {
		rejectedBy[reason] = n
		rejected += n
	}
	ready := !s.closing
	s.mu.Unlock()
	sv := status.ServiceView{
		Workers:       s.opts.Workers,
		Campaigns:     len(views),
		DedupHits:     dbs.Hits,
		DedupMisses:   dbs.Misses,
		DBEntries:     dbs.Entries,
		DBSegments:    dbs.Segments,
		DBHealed:      dbs.Healed,
		DBQuarantined: dbs.Quarantined,
		StoreErrors:   dbs.PutErrors,
		Rejected:      rejected,
		RejectedBy:    rejectedBy,
		Ready:         ready,
	}
	rows := make([]status.ServiceCampaign, 0, len(views))
	for _, v := range views {
		if v.State == StateQueued || v.State == StateRunning {
			sv.Active++
		}
		if v.Stuck {
			sv.StuckCampaigns++
		}
		sv.QueueDepth += v.QueueDepth
		sv.InFlight += v.InFlight
		rows = append(rows, status.ServiceCampaign{
			ID: v.ID, Name: v.Name, State: string(v.State),
			Jobs: v.Jobs, Done: v.Done, Simulated: v.Simulated,
			Cached: v.Cached, Failed: v.Failed,
			QueueDepth: v.QueueDepth, InFlight: v.InFlight, Weight: v.Weight,
		})
	}
	return sv, rows
}

// Close shuts the service down: new submissions are rejected, every
// campaign's context is cancelled (cooperative — in-flight simulations stop
// at their next poll), and the worker pool drains. Completed results are
// already durable in the database; a resubmitted campaign after restart
// resolves them as dedup hits. Close returns ctx.Err() if the pool does not
// drain before ctx ends.
func (s *Service) Close(ctx context.Context) error {
	s.mu.Lock()
	s.closing = true
	s.mu.Unlock()
	s.cancel()
	s.sched.close()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
