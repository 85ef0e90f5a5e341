package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"frfc/internal/experiment"
	"frfc/internal/harness"
	"frfc/internal/status"
)

// TestPushStatusPublishesTheLatestSnapshot: status pushes race each other
// from every worker, and the one that lands last must carry the counters of
// the database as it then stands — otherwise /metrics trails the store for as
// long as the daemon stays idle. Each goroutine pushes after every store
// operation, so once all have returned the published dedup ledger has to
// equal the database's.
func TestPushStatusPublishesTheLatestSnapshot(t *testing.T) {
	st, err := status.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	db, err := OpenDB(filepath.Join(t.TempDir(), "db"), DBOptions{Fsync: FsyncPolicy{Mode: FsyncOff}})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	s := New(db, Options{Workers: 1, Status: st})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Close(ctx) //nolint:errcheck // best-effort teardown
	}()

	published := func() *status.ServiceView {
		resp, err := http.Get("http://" + st.Addr() + "/status")
		if err != nil {
			t.Error(err)
			return nil
		}
		defer resp.Body.Close()
		var snap status.Snapshot
		if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
			t.Error(err)
			return nil
		}
		return snap.Service
	}
	// The ledger only grows, so what is published may never go backwards
	// either; a watcher polls for a stale snapshot overtaking a fresh one.
	stop := make(chan struct{})
	watched := make(chan struct{})
	go func() {
		defer close(watched)
		var last int64
		for {
			select {
			case <-stop:
				return
			default:
			}
			v := published()
			if v == nil {
				continue
			}
			n := v.DedupHits + v.DedupMisses
			if n < last {
				t.Errorf("published ledger went backwards, %d lookups after %d: a stale snapshot landed last", n, last)
				return
			}
			last = n
		}
	}()

	job := harness.Job{Spec: experiment.FR6(experiment.FastControl, 5), Load: 0.1}
	const pushers, rounds = 8, 100
	var wg sync.WaitGroup
	for g := 0; g < pushers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				hash := fmt.Sprintf("g%d-%d", g, i)
				db.Get(hash) // a miss
				s.pushStatus()
				if err := db.Put(job, hash, experiment.Result{Spec: "FR6"}); err != nil {
					t.Error(err)
					return
				}
				db.Get(hash) // a hit
				s.pushStatus()
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	<-watched

	got := published()
	if got == nil {
		t.Fatal("/status carries no service view")
	}
	want := db.Stats()
	if want.Hits != pushers*rounds || want.Misses != pushers*rounds {
		t.Fatalf("database ledger %d hits / %d misses, want %d of each", want.Hits, want.Misses, pushers*rounds)
	}
	if got.DedupHits != want.Hits || got.DedupMisses != want.Misses || got.DBEntries != want.Entries {
		t.Fatalf("published %d hits / %d misses / %d entries, database has %d / %d / %d: a stale snapshot landed last",
			got.DedupHits, got.DedupMisses, got.DBEntries, want.Hits, want.Misses, want.Entries)
	}
}
