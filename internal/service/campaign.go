package service

import (
	"context"
	"sync"
	"time"
)

// State is a campaign's lifecycle phase.
type State string

// Campaign states. A cancelled campaign keeps whatever results completed
// before the cancel; its remaining jobs are marked cancelled.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateCancelled State = "cancelled"
)

// outcome is what a campaign keeps of one recorded job: enough to count it,
// show it in the detail rows and find its stored line. The Result itself
// lives in the database, under hash.
type outcome struct {
	done    bool
	cached  bool   // served from the result database
	skipped bool   // never ran: retired by a cancel
	hash    string // the job's content hash; empty when skipped
	err     string // non-empty when the job failed or was cut short
	latency float64
}

// Campaign is one submitted sweep: its job grid, per-job outcomes in job
// order, scheduling parameters, and lifecycle state. All mutable fields are
// guarded by mu; the scheduler additionally owns wrr under its own lock.
type Campaign struct {
	id      string
	req     SweepRequest
	jobs    jobGrid // immutable; a job is built when a worker or a view needs it
	created time.Time

	ctx    context.Context
	cancel context.CancelFunc
	// finished closes exactly once, when the last job records (or the
	// campaign is cancelled with nothing in flight).
	finished chan struct{}

	mu       sync.Mutex
	state    State
	outcomes []outcome // indexed like jobs; zero until recorded
	queue    []int     // job indices not yet dispatched, FIFO
	inflight int
	recorded int
	// counters, split the way /status reports them
	simulated int
	cached    int
	failed    int
	cancelled int
	// omitted counts finished results whose line the database did not hold
	// when the stream endpoint asked — surfaced in the view (as
	// marshalErrors) instead of silently truncating the stream.
	omitted int
	// lastProgress is when an outcome last recorded (submission time until
	// then); stuck is the watchdog's verdict, cleared by any progress.
	lastProgress time.Time
	stuck        bool

	// weight and maxInflight are fixed at submission.
	weight      int
	maxInflight int
	// wrr is the campaign's smooth weighted-round-robin credit; owned by
	// the scheduler's lock, not mu.
	wrr int
}

// ID returns the campaign's identifier.
func (c *Campaign) ID() string { return c.id }

// Finished returns a channel closed when the campaign reaches a terminal
// state (done or cancelled with nothing left in flight).
func (c *Campaign) Finished() <-chan struct{} { return c.finished }

// State reports the campaign's current lifecycle phase.
func (c *Campaign) State() State {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.state
}

// storedHashes lists the hashes of the jobs that have finished with a stored
// result — not failed, not cancelled — in job order: the lines of the results
// stream.
func (c *Campaign) storedHashes() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	hashes := make([]string, 0, c.simulated+c.cached)
	for _, o := range c.outcomes {
		if o.done && o.err == "" && !o.skipped {
			hashes = append(hashes, o.hash)
		}
	}
	return hashes
}

// record stores one job's outcome and advances the campaign's lifecycle.
// Returns true when this record completed the campaign.
func (c *Campaign) record(idx int, o outcome) (completed bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.outcomes[idx].done {
		return false
	}
	c.outcomes[idx] = o
	c.recorded++
	c.lastProgress = time.Now()
	c.stuck = false
	switch {
	case o.cached:
		c.cached++
	case o.skipped:
		c.cancelled++
	case o.err != "" && c.state == StateCancelled:
		// An in-flight job cut short by the campaign's cancel, not a
		// failure of the job itself.
		c.cancelled++
	case o.err != "":
		c.failed++
	default:
		c.simulated++
	}
	if c.recorded == c.jobs.len() {
		if c.state != StateCancelled {
			c.state = StateDone
		}
		close(c.finished)
		return true
	}
	return false
}

// CampaignView is the JSON summary of one campaign, shared by the REST API
// and the /status snapshot.
type CampaignView struct {
	ID    string `json:"id"`
	Name  string `json:"name"`
	State State  `json:"state"`
	// Jobs is the campaign size; Done counts recorded outcomes of any kind.
	Jobs int `json:"jobs"`
	Done int `json:"done"`
	// Simulated jobs actually ran; Cached were served from the result
	// database (the dedup ledger); Failed carry an error; Cancelled were
	// never run because the campaign was cancelled.
	Simulated int `json:"simulated"`
	Cached    int `json:"cached"`
	Failed    int `json:"failed"`
	Cancelled int `json:"cancelled,omitempty"`
	// QueueDepth and InFlight describe the scheduler's view right now.
	QueueDepth int `json:"queueDepth"`
	InFlight   int `json:"inFlight"`
	// Weight and MaxInFlight echo the scheduling parameters.
	Weight      int `json:"weight"`
	MaxInFlight int `json:"maxInFlight,omitempty"`
	// AgeSeconds is how long ago the campaign was submitted.
	AgeSeconds float64 `json:"ageSeconds"`
	// Stuck is the no-progress watchdog's verdict: work outstanding but
	// nothing recorded for longer than the service's StuckAfter.
	Stuck bool `json:"stuck,omitempty"`
	// MarshalErrors counts finished results the results stream had to omit
	// because the database no longer held their line — zero unless
	// something is deeply wrong with the store.
	MarshalErrors int `json:"marshalErrors,omitempty"`
}

// view snapshots the campaign summary.
func (c *Campaign) view(now time.Time) CampaignView {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CampaignView{
		ID: c.id, Name: c.req.Name, State: c.state,
		Jobs: c.jobs.len(), Done: c.recorded,
		Simulated: c.simulated, Cached: c.cached,
		Failed: c.failed, Cancelled: c.cancelled,
		QueueDepth: len(c.queue), InFlight: c.inflight,
		Weight: c.weight, MaxInFlight: c.maxInflight,
		AgeSeconds: now.Sub(c.created).Seconds(),
		Stuck:      c.stuck, MarshalErrors: c.omitted,
	}
}

// noteOmitted raises the campaign's omitted-line count (the results stream
// recounts on every request; the maximum observed stands). Returns true the
// first time the count becomes nonzero, so the caller logs once per
// campaign, not once per poll.
func (c *Campaign) noteOmitted(n int) (first bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n > c.omitted {
		first = c.omitted == 0
		c.omitted = n
	}
	return first
}

// JobView is one job's row in the campaign detail response.
type JobView struct {
	Spec string  `json:"spec"`
	Load float64 `json:"load"`
	Seed uint64  `json:"seed,omitempty"`
	Hash string  `json:"hash"`
	// State is "queued", "running", "done", "cached", "failed" or
	// "cancelled".
	State string `json:"state"`
	// Latency is the job's measured average latency, present once done.
	Latency float64 `json:"latency,omitempty"`
	Err     string  `json:"err,omitempty"`
}

// jobViews snapshots the per-job rows, in job order.
func (c *Campaign) jobViews() []JobView {
	c.mu.Lock()
	defer c.mu.Unlock()
	queued := make(map[int]bool, len(c.queue))
	for _, i := range c.queue {
		queued[i] = true
	}
	out := make([]JobView, c.jobs.len())
	for i := range out {
		j, o := c.jobs.at(i), c.outcomes[i]
		jv := JobView{
			Spec: j.EffectiveSpec().Name, Load: j.Load, Seed: j.Seed,
			Hash: j.Hash(),
		}
		switch {
		case !o.done && queued[i]:
			jv.State = "queued"
		case !o.done:
			jv.State = "running"
		case o.cached:
			jv.State = "cached"
			jv.Latency = o.latency
		case o.skipped:
			jv.State = "cancelled"
		case o.err != "":
			jv.State = "failed"
			jv.Err = o.err
		default:
			jv.State = "done"
			jv.Latency = o.latency
		}
		out[i] = jv
	}
	return out
}
