// Package harness orchestrates experiment campaigns: it fans independent
// (configuration, offered-load) points out over a worker pool, caches results
// in an append-only JSONL store keyed by a stable content hash so interrupted
// campaigns resume where they stopped, streams progress, and locates
// saturation throughput adaptively by bisection instead of a fixed load grid.
//
// The determinism contract: every job has a network to itself for the run,
// reset from the job's seed to its constructed state (experiment.RunInstrumented
// hands one run at a time a network an earlier job of the configuration
// returned, or builds one), jobs never share mutable state, and results are
// returned in job order regardless of completion order — so a campaign run on
// N workers is bit-identical to the same campaign run serially. The contract
// is enforced by TestParallelEqualsSerial across worker counts.
//
// A panicking job is captured — stack and all — as that job's failure; its
// siblings and the campaign continue. Cancellation is cooperative: the
// simulator polls the context every 1024 cycles, so a per-job timeout or a
// campaign-wide cancel stops work without leaking goroutines.
package harness

import (
	"crypto/sha256"
	"encoding"
	"encoding/hex"
	"fmt"
	"runtime"
	"strconv"
	"time"

	"frfc/internal/experiment"
	"frfc/internal/metrics"
)

// Job is one unit of work: a configuration simulated at one offered load.
type Job struct {
	Spec experiment.Spec
	// Load is the offered traffic as a fraction of network capacity.
	Load float64
	// Seed, when nonzero, overrides the spec's RNG seed for this job —
	// the way a campaign decorrelates replicas of one configuration.
	Seed uint64

	// digest, when set, is the marshalled SHA-256 state after everything Hash
	// writes ahead of the load, shared by the jobs SpecJob built over that
	// spec. A bare literal leaves it nil and Hash renders on demand.
	digest []byte
}

// SpecJob returns the job over spec at load 0 with the spec digested once:
// a copy with Load set is the job at that load, and hashes like the bare
// literal Job{Spec: spec, Load: l} while digesting only the load. The sharing
// holds only while a job is used as built: one whose Spec is changed
// afterwards must be rebuilt as a literal (a Seed override is safe, Hash
// renders such a job afresh).
func SpecJob(spec experiment.Spec) Job {
	h := sha256.New()
	fmt.Fprintf(h, "%s|%#v|", hashVersion, spec.Normalized())
	digest, err := h.(encoding.BinaryMarshaler).MarshalBinary()
	if err != nil {
		panic(err) // crypto/sha256 always marshals its state
	}
	return Job{Spec: spec, digest: digest}
}

// AppendJobs appends one job per load over spec to jobs, in load order, all
// sharing one SpecJob digest.
func AppendJobs(jobs []Job, spec experiment.Spec, loads []float64) []Job {
	j := SpecJob(spec)
	for _, l := range loads {
		j.Load = l
		jobs = append(jobs, j)
	}
	return jobs
}

// EffectiveSpec is the spec the job actually executes: normalized (defaults
// filled) with any Seed override applied. Hashing and execution both use it,
// so a spec and its explicit-default twin share a cache key.
func (j Job) EffectiveSpec() experiment.Spec {
	s := j.Spec.Normalized()
	if j.Seed != 0 {
		s.Seed = j.Seed
	}
	return s
}

// hashVersion is baked into every job hash; bump it when Result fields or
// simulator semantics change so stale caches miss instead of lying.
// v2: Result gained batch-means/autocorrelation fields and WarmupUnstable.
// v3: Spec gained Routing/Faults/Check (hard-fault scenarios change the
// simulation), Result gained UnreachablePackets and DeliveredFraction.
// v4: the bit-error model (Config BER/CrcBits/E2ECheck/ReclaimCycles, Spec
// chaos fields) changes simulator semantics, and Result gained the
// corruption ledger.
// v5, v6: Result gained the self-profiling and the latency-waterfall summary
// as flat fields, one bump each.
// v7: those fields left Result for the optional Observed sidecar. This is the
// last bump an observer causes: a new one adds a member to experiment.Observed
// and changes neither the measurement's shape nor what a stored line means.
const hashVersion = "frfc-job-v7"

// Hash is the job's stable content hash: a digest of the normalized spec
// (every field, including nested router configs and the traffic pattern's
// concrete type), the offered load, and the seed override. Two jobs hash
// equal exactly when Run would execute identical simulations, which is what
// makes the hash a safe result-cache key and a safe per-job RNG root.
func (j Job) Hash() string {
	h := sha256.New()
	if j.digest != nil && j.Seed == 0 {
		if err := h.(encoding.BinaryUnmarshaler).UnmarshalBinary(j.digest); err != nil {
			panic(err) // the state came from MarshalBinary in this process
		}
		// strconv's 'g' at precision 12 is the bytes fmt's %.12g prints.
		var load [32]byte
		h.Write(strconv.AppendFloat(load[:0], j.Load, 'g', 12, 64))
	} else {
		fmt.Fprintf(h, "%s|%#v|%.12g", hashVersion, j.EffectiveSpec(), j.Load)
	}
	var sum [sha256.Size]byte
	var out [16]byte
	hex.Encode(out[:], h.Sum(sum[:0])[:len(out)/2])
	return string(out[:])
}

// JobResult is one job's outcome. Exactly one of Result (Err == "") or Err is
// meaningful; Cached qualifies how the result was obtained.
type JobResult struct {
	Job  Job
	Hash string
	// Result is the simulation's report when the job succeeded (or was
	// served from the store).
	Result experiment.Result
	// Err is non-empty when the job failed: a captured panic (with
	// Panicked set and the stack appended), a per-job timeout, or a
	// campaign cancellation.
	Err      string
	Panicked bool
	// Cached is set when the result came from the store without running.
	Cached bool
	// Elapsed is the wall-clock execution time (zero for cached).
	Elapsed time.Duration
}

// Failure is the job's error, naming its spec and load; nil when it succeeded.
func (jr JobResult) Failure() error {
	if jr.Err == "" {
		return nil
	}
	return fmt.Errorf("%s at load %.4f: %s", jr.Job.Spec.Name, jr.Job.Load, jr.Err)
}

// Options tunes a campaign. The zero value runs with NumCPU workers, no
// per-job timeout, no store, and no progress reporting.
type Options struct {
	// Workers is the pool size; 0 means runtime.NumCPU().
	Workers int
	// Timeout, when nonzero, bounds each job's execution; a job that
	// exceeds it fails with context.DeadlineExceeded. Cached results are
	// exempt.
	Timeout time.Duration
	// Store, when non-nil, is consulted before running a job and appended
	// to after each success, making the campaign resumable. *Store is the
	// single-file implementation; internal/service layers a segmented
	// database behind the same interface.
	Store ResultStore
	// Progress, when non-nil, is called after every job completion (it
	// must be fast; it runs under the campaign's bookkeeping lock).
	Progress func(Progress)
	// JobStarted, when non-nil, is called with the job and its hash from
	// the worker about to simulate it — after the store lookup misses,
	// before the run. JobFinished,
	// when non-nil, is called with every job's outcome (simulated, cached
	// or failed). Both fire concurrently from worker goroutines and
	// must be safe for that; neither may mutate the job. They exist to feed
	// live status displays and never influence results.
	JobStarted  func(Job, string)
	JobFinished func(JobResult)
	// Observe and Collect are the two ends of observing a campaign, and the
	// only observer fields: Observe names the collectors each simulated job
	// carries (metrics.NewProbe builds them; zero options build no probe),
	// and Collect, when non-nil, is handed that probe from the worker
	// goroutine once the run has succeeded. What a probe's profile registry
	// and stage ledger saw lands in the Result's Observed sidecar whether or
	// not anything collects. Observation only: the measurement fields of an
	// observed Result are bit-identical to a bare run's (the contract
	// TestRunObservedMatchesRun enforces), and observed campaigns are
	// bit-identical across worker counts. Cached jobs simulate nothing, so
	// they build no probe and are not collected.
	Observe metrics.Options
	Collect func(Job, *metrics.Probe)
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.NumCPU()
}
