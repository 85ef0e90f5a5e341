package service

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"frfc/internal/report"
)

// Reporter regenerates a BENCHMARK.md-style report from the live result
// database each time a campaign completes. Kicks are coalesced: a burst of
// completions while a render is in flight produces exactly one follow-up
// render over the then-current database, so the report is always at least as
// fresh as the last kick. Writes are atomic (temp file + rename) so a reader
// never observes a half-written report.
type Reporter struct {
	db   *DB
	path string

	kick chan struct{} // capacity 1: pending-work flag, not a queue
	done chan struct{}
	stop sync.Once

	mu      sync.Mutex
	renders int
	lastErr error
}

// NewReporter starts a reporter regenerating path from db. Wire its Kick
// method to Options.OnCampaignDone and call Close at shutdown.
func NewReporter(db *DB, path string) *Reporter {
	r := &Reporter{
		db: db, path: path,
		kick: make(chan struct{}, 1),
		done: make(chan struct{}),
	}
	go r.loop()
	return r
}

// Kick requests a regeneration. Never blocks: if one is already pending the
// kick coalesces with it.
func (r *Reporter) Kick(CampaignView) {
	select {
	case r.kick <- struct{}{}:
	default:
	}
}

// Renders reports how many regenerations completed, and the last render
// error (nil when the last render succeeded).
func (r *Reporter) Renders() (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.renders, r.lastErr
}

// Close stops the reporter after draining any pending kick, so a completion
// recorded before Close is always reflected in the file. Safe to call more
// than once. Kicks after Close panic — stop the service first.
func (r *Reporter) Close() {
	r.stop.Do(func() { close(r.kick) })
	<-r.done
}

func (r *Reporter) loop() {
	defer close(r.done)
	for range r.kick {
		err := r.render()
		r.mu.Lock()
		r.renders++
		r.lastErr = err
		r.mu.Unlock()
	}
}

// render snapshots the database and rewrites the report atomically.
func (r *Reporter) render() error {
	var buf bytes.Buffer
	if err := r.db.Snapshot(&buf); err != nil {
		return fmt.Errorf("snapshot db: %w", err)
	}
	// The snapshot is written by the database itself, so strict parsing: a
	// malformed line here is a bug, not operator input.
	src, err := report.ReadStore(&buf, r.db.Dir(), false)
	if err != nil {
		return err
	}
	out := report.Render([]report.Source{src})
	tmp, err := os.CreateTemp(filepath.Dir(r.path), ".report-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(out); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), r.path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}
