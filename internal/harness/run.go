package harness

import (
	"context"
	"time"

	"frfc/internal/experiment"
	"frfc/internal/metrics"
)

// RunJobs executes the jobs on the worker pool and returns one JobResult per
// job, in job order. Failed jobs (panic, timeout, cancellation) are reported
// in their JobResult without disturbing their siblings; the returned error is
// non-nil only when the campaign's own context ended, in which case results
// for unstarted jobs carry that error too.
func RunJobs(ctx context.Context, jobs []Job, o Options) ([]JobResult, error) {
	tr := newTracker(len(jobs), o.workers(), o.Progress)
	outs := mapPool(ctx, o.workers(), jobs, func(ctx context.Context, i int, j Job) (JobResult, error) {
		return execJob(ctx, j, o, tr), nil
	})
	results := make([]JobResult, len(jobs))
	for i, out := range outs {
		if out.Err != nil {
			// Only jobs never started (campaign cancelled) or a
			// harness-internal panic land here; job panics are
			// captured inside execJob.
			jr := JobResult{Job: jobs[i], Err: out.Err.Error(), Panicked: out.Panicked}
			tr.finish(&jr)
			if o.JobFinished != nil {
				o.JobFinished(jr)
			}
			results[i] = jr
			continue
		}
		results[i] = out.Value
	}
	return results, ctx.Err()
}

// ExecOne resolves a single job through exactly the path RunJobs uses —
// store lookup, isolated timeout-bounded simulation, store write-back — but
// without a campaign tracker, so an external scheduler (internal/service)
// can multiplex jobs from many campaigns over its own worker pool while
// keeping the per-job semantics (dedup, panic capture, cooperative
// cancellation) identical to a one-shot campaign.
func ExecOne(ctx context.Context, j Job, o Options) JobResult {
	return execJob(ctx, j, o, nil)
}

// execJob resolves one job: store lookup, then an isolated, timeout-bounded
// simulation, then store write-back. It never panics and always notifies the
// tracker exactly once.
func execJob(ctx context.Context, j Job, o Options, tr *tracker) JobResult {
	jr := JobResult{Job: j, Hash: j.Hash()}
	defer func() {
		tr.finish(&jr)
		if o.JobFinished != nil {
			o.JobFinished(jr)
		}
	}()

	if o.Store != nil {
		if r, ok := o.Store.Get(jr.Hash); ok {
			jr.Result = r
			jr.Cached = true
			return jr
		}
	}

	runCtx := ctx
	if o.Timeout > 0 {
		var cancel context.CancelFunc
		runCtx, cancel = context.WithTimeout(ctx, o.Timeout)
		defer cancel()
	}
	if o.JobStarted != nil {
		o.JobStarted(j, jr.Hash)
	}
	start := time.Now()
	out := runIsolated(runCtx, 0, j, func(ctx context.Context, _ int, j Job) (experiment.Result, error) {
		return runJob(ctx, j, o)
	})
	jr.Elapsed = time.Since(start)
	if out.Err != nil {
		jr.Err = out.Err.Error()
		jr.Panicked = out.Panicked
		if out.Panicked {
			jr.Err += "\n" + out.Stack
		}
		return jr
	}
	jr.Result = out.Value
	if o.Store != nil {
		if perr := o.Store.Put(j, jr.Hash, out.Value); perr != nil {
			// The result is still good; surface the store failure
			// without discarding it.
			jr.Err = perr.Error()
		}
	}
	return jr
}

// runJob runs the simulation; execJob calls it under the pool's panic capture,
// so a bug tripped by one parameter point becomes that point's failure rather
// than a crashed campaign. The run carries the probe o.Observe arms (none when
// it arms nothing) and hands it to o.Collect on success.
func runJob(ctx context.Context, j Job, o Options) (experiment.Result, error) {
	var probe *metrics.Probe
	if o.Observe != (metrics.Options{}) {
		probe = metrics.NewProbe(o.Observe)
	}
	res, err := experiment.RunInstrumented(ctx, j.EffectiveSpec(), j.Load, probe, nil)
	if err == nil && o.Collect != nil {
		o.Collect(j, probe)
	}
	return res, err
}
