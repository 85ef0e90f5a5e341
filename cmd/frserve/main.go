// Command frserve is the campaign service daemon: a long-running HTTP server
// that accepts sweep submissions, schedules their jobs fairly over one shared
// worker pool, dedups completed work through a persistent on-disk result
// database, and reports progress on /status and /metrics.
//
// The REST API (see docs/service.md):
//
//	POST   /campaigns               submit a sweep (JSON body), returns the campaign
//	GET    /campaigns               list campaigns
//	GET    /campaigns/{id}          one campaign with per-job rows
//	GET    /campaigns/{id}/results  completed results as JSONL store lines (?wait=1 blocks)
//	DELETE /campaigns/{id}          cancel cooperatively
//	GET    /healthz                 liveness (always 200)
//	GET    /readyz                  readiness (503 once draining)
//
// Results are durable: the database under -db survives restarts, and a
// resubmitted campaign resolves every already-completed job from it without
// re-executing. SIGINT/SIGTERM shut the daemon down gracefully: readiness
// flips first so load balancers route away, then the listener closes and the
// worker pool drains.
//
// Admission control (-max-campaigns, -max-queued-jobs, -max-jobs-per-campaign,
// -max-body-bytes, -rate/-burst) bounds what the daemon accepts; everything
// over the envelope is rejected fast with 429/503 instead of degrading
// everyone. -fsync picks the durability policy; docs/service.md has the
// measured cost of each rung.
//
// Usage:
//
//	frserve -addr 127.0.0.1:8080 -db ./frdb -workers 8
//	frserve -db ./frdb -compact        # offline: merge segments, drop stale duplicates
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"frfc/internal/iofault"
	"frfc/internal/service"
	"frfc/internal/status"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stderr))
}

// config is the daemon's parsed command line.
type config struct {
	addr            string
	dbDir           string
	workers         int
	timeout         time.Duration
	segmentBytes    int64
	shutdownTimeout time.Duration

	// admission-control envelope
	limits     service.Limits
	stuckAfter time.Duration

	// durability policy: -fsync always|batch|off plus batch tuning
	fsyncMode     string
	fsyncBatch    int
	fsyncInterval time.Duration

	// protective HTTP timeouts
	readHeaderTimeout time.Duration
	readTimeout       time.Duration
	writeTimeout      time.Duration
	idleTimeout       time.Duration

	// iofaultPlan arms a deterministic fault-injection plan under the
	// database — the kill-9 soak's lever. Empty means the real filesystem.
	iofaultPlan string
	// compact runs offline compaction instead of serving.
	compact bool
}

// dbOptions assembles the database options the config describes.
func (cfg config) dbOptions() (service.DBOptions, error) {
	mode, err := service.ParseFsyncMode(cfg.fsyncMode)
	if err != nil {
		return service.DBOptions{}, err
	}
	o := service.DBOptions{
		SegmentBytes: cfg.segmentBytes,
		Fsync: service.FsyncPolicy{
			Mode: mode, BatchPuts: cfg.fsyncBatch, BatchInterval: cfg.fsyncInterval,
		},
	}
	if cfg.iofaultPlan != "" {
		plan, err := iofault.ParsePlan(cfg.iofaultPlan)
		if err != nil {
			return service.DBOptions{}, err
		}
		in, err := iofault.New(plan...)
		if err != nil {
			return service.DBOptions{}, err
		}
		o.FS = in
	}
	return o, nil
}

// daemon bundles the running pieces so start/shutdown are testable without a
// process boundary.
type daemon struct {
	cfg config
	db  *service.DB
	st  *status.Server
	svc *service.Service

	stop    sync.Once
	stopErr error
}

// start opens the database, spawns the service's worker pool, mounts the
// REST API next to /status and /metrics on one listener.
func start(cfg config, stderr io.Writer) (*daemon, error) {
	dbo, err := cfg.dbOptions()
	if err != nil {
		return nil, err
	}
	db, err := service.OpenDB(cfg.dbDir, dbo)
	if err != nil {
		return nil, err
	}
	st, err := status.ServeOpts(cfg.addr, status.ServerOptions{
		ReadHeaderTimeout: cfg.readHeaderTimeout,
		ReadTimeout:       cfg.readTimeout,
		WriteTimeout:      cfg.writeTimeout,
		IdleTimeout:       cfg.idleTimeout,
	})
	if err != nil {
		db.Close()
		return nil, err
	}
	d := &daemon{cfg: cfg, db: db, st: st}
	d.svc = service.New(db, service.Options{
		Workers:    cfg.workers,
		Timeout:    cfg.timeout,
		Status:     st,
		Limits:     cfg.limits,
		StuckAfter: cfg.stuckAfter,
	})
	d.svc.Mount(st)
	logRecovery(stderr, db.Stats(), cfg.dbDir)
	return d, nil
}

// logRecovery reports what replay found under the database directory:
// entries recovered, torn tails healed, corrupt lines quarantined.
func logRecovery(stderr io.Writer, s service.DBStats, dir string) {
	if s.Entries == 0 && s.Healed == 0 && s.Quarantined == 0 {
		return
	}
	fmt.Fprintf(stderr, "frserve: recovered %d results from %d segments under %s", s.Entries, s.Segments, dir)
	if s.Healed > 0 {
		fmt.Fprintf(stderr, " (healed %d torn lines)", s.Healed)
	}
	if s.Quarantined > 0 {
		fmt.Fprintf(stderr, " (quarantined %d corrupt lines — see seg-*.quarantine)", s.Quarantined)
	}
	fmt.Fprintln(stderr)
}

// addr reports the bound listen address (resolved when -addr used port 0).
func (d *daemon) addr() string { return d.st.Addr() }

// shutdown stops the daemon gracefully, in load-balancer-friendly order:
// readiness flips first (/readyz fails, new submissions get 503) while the
// listener still answers, then in-flight requests finish, campaigns are
// cancelled cooperatively and the worker pool drains, and the database
// closes. All completed results are already durable on disk — resubmitting a
// campaign after restart resolves them as dedup hits. Idempotent; later calls
// return the first call's error.
func (d *daemon) shutdown(timeout time.Duration) error {
	d.stop.Do(func() {
		d.svc.StartDrain()
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		defer cancel()
		var firstErr error
		if err := d.st.Shutdown(ctx); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("http shutdown: %w", err)
		}
		if err := d.svc.Close(ctx); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("drain workers: %w", err)
		}
		if err := d.db.Close(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("close db: %w", err)
		}
		d.stopErr = firstErr
	})
	return d.stopErr
}

// runCompact is the offline -compact mode: replay the database (healing torn
// tails and quarantining corrupt lines on the way in), merge every segment
// into one last-write-wins segment, and report what changed.
func runCompact(cfg config, stderr io.Writer) int {
	dbo, err := cfg.dbOptions()
	if err != nil {
		fmt.Fprintf(stderr, "frserve: %v\n", err)
		return 2
	}
	db, err := service.OpenDB(cfg.dbDir, dbo)
	if err != nil {
		fmt.Fprintf(stderr, "frserve: %v\n", err)
		return 2
	}
	before := db.Stats()
	logRecovery(stderr, before, cfg.dbDir)
	if err := db.Compact(); err != nil {
		db.Close()
		fmt.Fprintf(stderr, "frserve: compact: %v\n", err)
		return 1
	}
	if err := db.Close(); err != nil {
		fmt.Fprintf(stderr, "frserve: close db: %v\n", err)
		return 1
	}
	fmt.Fprintf(stderr, "frserve: compacted %s: %d entries, %d segments -> 1\n",
		cfg.dbDir, before.Entries, before.Segments)
	return 0
}

func run(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("frserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	fs.StringVar(&cfg.addr, "addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks a free one)")
	fs.StringVar(&cfg.dbDir, "db", "frdb", "result database directory (created if absent; survives restarts)")
	fs.IntVar(&cfg.workers, "workers", 0, "shared worker pool size (0 = NumCPU)")
	fs.DurationVar(&cfg.timeout, "timeout", 0, "per-job execution timeout (0 = none)")
	fs.Int64Var(&cfg.segmentBytes, "segment-bytes", 0, "database segment rotation threshold in bytes (0 = default)")
	fs.DurationVar(&cfg.shutdownTimeout, "shutdown-timeout", 30*time.Second, "grace period for draining on SIGINT/SIGTERM")

	fs.IntVar(&cfg.limits.MaxCampaigns, "max-campaigns", 0, "cap on concurrently active campaigns (0 = unlimited)")
	fs.IntVar(&cfg.limits.MaxQueuedJobs, "max-queued-jobs", 0, "cap on undispatched jobs across campaigns (0 = unlimited)")
	fs.IntVar(&cfg.limits.MaxJobsPerCampaign, "max-jobs-per-campaign", 0, "cap on one submission's expanded grid (0 = unlimited)")
	fs.Int64Var(&cfg.limits.MaxBodyBytes, "max-body-bytes", 1<<20, "cap on the submit request body in bytes (0 = unlimited)")
	fs.Float64Var(&cfg.limits.RatePerSec, "rate", 0, "per-client submission rate limit in requests/sec (0 = off)")
	fs.IntVar(&cfg.limits.Burst, "burst", 0, "per-client submission burst (0 = 1; only with -rate)")
	fs.DurationVar(&cfg.stuckAfter, "stuck-after", 10*time.Minute, "flag campaigns with work but no progress for this long (0 = off)")

	fs.StringVar(&cfg.fsyncMode, "fsync", "always", "durability policy: always (every Put durable), batch (bounded loss), off (OS decides)")
	fs.IntVar(&cfg.fsyncBatch, "fsync-batch-puts", 0, "with -fsync batch: sync after this many unsynced Puts (0 = 16)")
	fs.DurationVar(&cfg.fsyncInterval, "fsync-batch-interval", 0, "with -fsync batch: sync when the oldest unsynced Put is this old (0 = 100ms)")

	fs.DurationVar(&cfg.readHeaderTimeout, "read-header-timeout", 0, "HTTP header read timeout (0 = 10s; slowloris defense)")
	fs.DurationVar(&cfg.readTimeout, "read-timeout", 0, "HTTP full-request read timeout (0 = disabled)")
	fs.DurationVar(&cfg.writeTimeout, "write-timeout", 0, "HTTP response write timeout (0 = disabled; would cut ?wait=1 long-polls)")
	fs.DurationVar(&cfg.idleTimeout, "idle-timeout", 0, "HTTP keep-alive idle timeout (0 = 2m)")

	fs.StringVar(&cfg.iofaultPlan, "iofault", "", `deterministic IO fault plan under the database, e.g. "eio write @3; kill after-sync @5" (testing only)`)
	fs.BoolVar(&cfg.compact, "compact", false, "compact the database offline (merge segments, last write wins) and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "frserve: "+format+"\n", a...)
		return 2
	}
	if fs.NArg() > 0 {
		return fail("unexpected arguments: %v", fs.Args())
	}
	if cfg.compact {
		return runCompact(cfg, stderr)
	}

	d, err := start(cfg, stderr)
	if err != nil {
		return fail("%v", err)
	}
	fmt.Fprintf(stderr, "frserve: %d workers, db %s\n", d.svc.Workers(), cfg.dbDir)
	fmt.Fprintf(stderr, "frserve: API on http://%s/campaigns, status on http://%s/status\n", d.addr(), d.addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	s := <-sig
	signal.Stop(sig)
	fmt.Fprintf(stderr, "frserve: %s, shutting down (grace %s)\n", s, cfg.shutdownTimeout)
	if err := d.shutdown(cfg.shutdownTimeout); err != nil {
		return fail("shutdown: %v", err)
	}
	return 0
}
