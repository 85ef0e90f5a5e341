package harness

import (
	"fmt"
	"sync"
	"time"
)

// Progress is a campaign snapshot, delivered to Options.Progress after every
// job completion. Counters are cumulative; Done includes cached and failed
// jobs.
type Progress struct {
	// Total is the number of jobs in the campaign. Adaptive searches,
	// whose run count is data-dependent, report their worst-case estimate.
	Total int
	Done  int
	// Cached jobs were served from the store; Failed carry a non-empty Err.
	Cached int
	Failed int
	// Elapsed is wall-clock time since the campaign started. ETA is a
	// naive projection from the mean execution time of the jobs actually
	// simulated so far (zero until one finishes); display only.
	Elapsed time.Duration
	ETA     time.Duration
}

// String renders the snapshot as one status line.
func (p Progress) String() string {
	s := fmt.Sprintf("%d/%d done", p.Done, p.Total)
	if p.Cached > 0 {
		s += fmt.Sprintf(", %d cached", p.Cached)
	}
	if p.Failed > 0 {
		s += fmt.Sprintf(", %d failed", p.Failed)
	}
	if p.ETA > 0 {
		s += fmt.Sprintf(", ~%s left", p.ETA.Round(time.Second))
	}
	return s
}

// tracker accumulates campaign progress and fans snapshots out to the
// user-supplied callback. All bookkeeping runs under one lock so callbacks
// observe monotonic snapshots.
type tracker struct {
	mu       sync.Mutex
	p        Progress
	workers  int
	start    time.Time
	simTime  time.Duration // summed execution time of simulated jobs
	simCount int
	report   func(Progress)
}

func newTracker(total, workers int, report func(Progress)) *tracker {
	return &tracker{p: Progress{Total: total}, workers: workers, start: time.Now(), report: report}
}

// finish folds one completed job into the counters and reports.
func (t *tracker) finish(jr *JobResult) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.p.Done++
	switch {
	case jr.Cached:
		t.p.Cached++
	case jr.Err != "":
		t.p.Failed++
		t.simTime += jr.Elapsed
		t.simCount++
	default:
		t.simTime += jr.Elapsed
		t.simCount++
	}
	t.p.Elapsed = time.Since(t.start)
	t.p.ETA = 0
	if remaining := t.p.Total - t.p.Done; remaining > 0 && t.simCount > 0 {
		per := t.simTime / time.Duration(t.simCount)
		t.p.ETA = per * time.Duration(remaining) / time.Duration(max(t.workers, 1))
	}
	// Reported under the lock so callbacks observe snapshots in order.
	if t.report != nil {
		t.report(t.p)
	}
	t.mu.Unlock()
}
