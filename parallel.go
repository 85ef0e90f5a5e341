package frfc

import (
	"context"
	"time"

	"frfc/internal/harness"
	"frfc/internal/metrics"
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
// panic (stack included, with Panicked set), a per-job timeout, or a campaign
// cancellation; failures never disturb sibling jobs. Cached marks results
// served from the ResultPath store without simulating, and Elapsed is the
// job's wall-clock execution time (zero when cached).
type JobResult = harness.JobResult

// Progress is a campaign snapshot streamed to ParallelOptions.Progress after
// every job completion: Done of Total jobs, of which Cached and Failed,
// after Elapsed; ETA is a naive projection from mean job execution
// time — display only, zero until the first job finishes. Its String renders
// the snapshot as one status line.
type Progress = harness.Progress

// ParallelOptions tunes RunJobs, SweepParallel and SaturationSearch. The zero
// value runs on runtime.NumCPU() workers with no timeout, no cache and no
// progress reporting.
type ParallelOptions struct {
	// Workers is the pool size; 0 means runtime.NumCPU(). Any worker
	// count yields bit-identical results: each job has a network to itself
	// for the run, reset from the job's seed to its constructed state, and
	// results always come back in job order.
	Workers int
	// Timeout, when nonzero, bounds each job's execution; the simulator
	// polls cancellation every 1024 cycles.
	Timeout time.Duration
	// ResultPath, when non-empty, names a JSONL result store appended to
	// after every completed job and consulted before running one, so an
	// interrupted campaign re-invoked with the same path resumes where it
	// stopped.
	ResultPath string
	// Progress, when non-nil, receives a snapshot after every completion.
	Progress func(Progress)
	// Status, when non-nil, feeds the campaign to a live status server:
	// progress and in-flight jobs appear on /status, and every simulated
	// job's per-router counters are merged into the /metrics exposition as
	// it finishes. Serving is observation-only — results are bit-identical
	// with or without it.
	Status *StatusServer
	// Profile arms self-profiling on every simulated job: each Result
	// carries the deterministic activity summary in Observed.Activity, and
	// when Status is also set the per-job profile registries are merged
	// into the server's /status profile block and /metrics exposition.
	// Observation-only: the measurement is bit-identical with profiling
	// off, and profiled campaigns are bit-identical across worker counts.
	Profile bool
	// Waterfall arms latency provenance on every simulated job: each Result
	// carries the deterministic stage summary in Observed.Waterfall (queue,
	// reserve, arb, stall, sched, link, drain — summing exactly to the
	// decomposed latency), and when Status is also set the per-job ledgers
	// are merged into the server's /status waterfall block and /metrics
	// exposition. Observation-only: the measurement is bit-identical with
	// the ledger off, and waterfall campaigns are bit-identical across
	// worker counts.
	Waterfall bool
}

func (o ParallelOptions) internal() (harness.Options, *harness.Store, error) {
	ho := harness.Options{Workers: o.Workers, Timeout: o.Timeout}
	ho.Progress = o.Progress
	if o.Status != nil {
		if cb := o.Progress; cb != nil {
			ho.Progress = func(p Progress) {
				o.Status.srv.OnProgress(p)
				cb(p)
			}
		} else {
			ho.Progress = o.Status.srv.OnProgress
		}
		ho.JobStarted = o.Status.srv.OnJobStarted
		ho.JobFinished = o.Status.srv.OnJobFinished
		ho.Collect = o.Status.srv.OnCollect
	}
	if o.Status != nil || o.Profile || o.Waterfall {
		ho.Probe = func() *metrics.Probe {
			return metrics.NewProbe(0, o.Status != nil, o.Profile, o.Waterfall)
		}
	}
	if o.ResultPath == "" {
		return ho, nil, nil
	}
	st, err := harness.OpenStore(o.ResultPath)
	if err != nil {
		return ho, nil, err
	}
	ho.Store = st
	return ho, st, nil
}

// RunJobs executes the jobs concurrently on a worker pool and returns one
// JobResult per job, in job order. The results are bit-identical to running
// each job serially, for any worker count. A panicking or timed-out job
// becomes that job's failure, not a crashed campaign; the returned error is
// non-nil only when ctx itself ended.
func RunJobs(ctx context.Context, jobs []Job, o ParallelOptions) ([]JobResult, error) {
	ho, st, err := o.internal()
	if err != nil {
		return nil, err
	}
	if st != nil {
		defer st.Close()
	}
	return harness.RunJobs(ctx, jobs, ho)
}

// SweepParallel is Sweep fanned over a worker pool: it runs the spec at each
// offered load concurrently and returns results in load order, bit-identical
// to Sweep. A failed point returns its zero Result; inspect per-point detail
// with RunJobs when that matters.
func SweepParallel(ctx context.Context, s Spec, loads []float64, o ParallelOptions) ([]Result, error) {
	jrs, err := RunJobs(ctx, harness.AppendJobs(nil, s, loads), o)
	if err != nil {
		return nil, err
	}
	out := make([]Result, len(jrs))
	for i, jr := range jrs {
		out[i] = jr.Result
	}
	return out, nil
}

// SatPoint is one configuration's result from SaturationSearch: Saturation is
// the highest sustainable offered load (fraction of capacity) and Effective
// the same debited by the configuration's bandwidth penalty, the paper's
// comparison basis; BaseLatency is the contention-free latency the search
// calibrated its sustainability threshold against; Evals counts bisection
// evaluations and Simulated those actually run rather than served from the
// result store; Err is non-empty when the search could not complete.
type SatPoint = harness.SatResult

// SaturationSearch locates each spec's saturation throughput adaptively by
// bisection — O(log(1/resolution)) runs per configuration instead of a fixed
// load grid. Specs search in parallel; every run flows through the result
// store when ResultPath is set, so searches cache and resume like sweeps.
// resolution is the load step at which bisection stops; 0 means 1% of
// capacity.
func SaturationSearch(ctx context.Context, specs []Spec, resolution float64, o ParallelOptions) ([]SatPoint, error) {
	ho, st, err := o.internal()
	if err != nil {
		return nil, err
	}
	if st != nil {
		defer st.Close()
	}
	return harness.SaturationSearch(ctx, specs, resolution, ho)
}
