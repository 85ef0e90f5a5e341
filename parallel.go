package frfc

import (
	"context"

	"frfc/internal/harness"
)

// Job is one unit of parallel experiment work: a configuration simulated at
// one offered load. Seed, when nonzero, overrides the spec's RNG seed — the
// way a campaign decorrelates replicas of one configuration. Its Hash is the
// job's stable content hash: a digest of the normalized spec, load and seed
// that keys the JSONL result cache. Two jobs hash equal exactly when they
// would execute identical simulations.
type Job = harness.Job

// JobResult is one job's outcome from RunJobs: the Job echoed back, so
// failures can be attributed even when Result is zero, its Hash, and the
// Result, meaningful when Err is empty. Err reports a failed job — a captured
// panic (stack included, with Panicked set) or a campaign cancellation;
// failures never disturb sibling jobs. Cached marks results served from the
// ResultPath store without simulating, and Elapsed is the job's wall-clock
// execution time (zero when cached).
type JobResult = harness.JobResult

// ParallelOptions tunes RunJobs. The zero value runs on runtime.NumCPU()
// workers with no result store.
type ParallelOptions struct {
	// Workers is the pool size; 0 means runtime.NumCPU(). Any worker
	// count yields bit-identical results: each job has a network to itself
	// for the run, reset from the job's seed to its constructed state, and
	// results always come back in job order.
	Workers int
	// ResultPath, when non-empty, names a JSONL result store appended to
	// after every completed job and consulted before running one, so an
	// interrupted campaign re-invoked with the same path resumes where it
	// stopped.
	ResultPath string
}

// RunJobs executes the jobs concurrently on a worker pool and returns one
// JobResult per job, in job order. The results are bit-identical to running
// each job serially, for any worker count. A panicking job becomes that job's
// failure, not a crashed campaign; the returned error is non-nil only when
// ctx itself ended or the result store could not be opened.
func RunJobs(ctx context.Context, jobs []Job, o ParallelOptions) ([]JobResult, error) {
	ho := harness.Options{Workers: o.Workers}
	if o.ResultPath != "" {
		st, err := harness.OpenStore(o.ResultPath)
		if err != nil {
			return nil, err
		}
		defer st.Close()
		ho.Store = st
	}
	return harness.RunJobs(ctx, jobs, ho)
}
