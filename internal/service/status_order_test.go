package service

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"reflect"
	"regexp"
	"sync"
	"testing"
	"time"

	"frfc/internal/experiment"
	"frfc/internal/harness"
	"frfc/internal/status"
)

// TestStatusReadsTheLatestLedger: /status is computed from the service when
// it is requested, so while goroutines hammer the store a watcher never sees
// the dedup ledger go backwards, and once they have all returned what is
// published equals the database's counters — nothing trails the store while
// the daemon then sits idle.
func TestStatusReadsTheLatestLedger(t *testing.T) {
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
	// either; a watcher polls for an older reading served after a newer one.
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
				t.Errorf("published ledger went backwards, %d lookups after %d", n, last)
				return
			}
			last = n
		}
	}()

	job := harness.Job{Spec: experiment.FR6(experiment.FastControl, 5), Load: 0.1}
	const writers, rounds = 8, 100
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				hash := fmt.Sprintf("g%d-%d", g, i)
				db.Get(hash) // a miss
				if err := db.Put(job, hash, experiment.Result{Spec: "FR6"}); err != nil {
					t.Error(err)
					return
				}
				db.Get(hash) // a hit
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
	if want.Hits != writers*rounds || want.Misses != writers*rounds {
		t.Fatalf("database ledger %d hits / %d misses, want %d of each", want.Hits, want.Misses, writers*rounds)
	}
	if got.DedupHits != want.Hits || got.DedupMisses != want.Misses || got.DBEntries != want.Entries {
		t.Fatalf("published %d hits / %d misses / %d entries, database has %d / %d / %d",
			got.DedupHits, got.DedupMisses, got.DBEntries, want.Hits, want.Misses, want.Entries)
	}
}

// TestStatusRowsInSubmissionOrder: /status, the frfc_campaign_* series of
// /metrics and GET /campaigns list campaigns in the order they were
// submitted — c2 before c10 — not by ID as a string.
func TestStatusRowsInSubmissionOrder(t *testing.T) {
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
	s.Mount(st)

	var want []string
	for i := 0; i < 11; i++ {
		c, err := s.Submit(SweepRequest{Configs: []string{"FR6"}, Loads: []float64{0.2}, Sample: 150, Warmup: 300})
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, c)
		want = append(want, c.ID())
	}
	if want[1] != "c2" || want[10] != "c11" {
		t.Fatalf("campaign IDs = %v, want c1..c11", want)
	}
	fetch := func(path string) []byte {
		t.Helper()
		resp, err := http.Get("http://" + st.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}

	var snap status.Snapshot
	if err := json.Unmarshal(fetch("/status"), &snap); err != nil {
		t.Fatal(err)
	}
	var rows []string
	for _, c := range snap.Campaigns {
		rows = append(rows, c.ID)
	}
	var listed []CampaignView
	if err := json.Unmarshal(fetch("/campaigns"), &listed); err != nil {
		t.Fatal(err)
	}
	var list []string
	for _, v := range listed {
		list = append(list, v.ID)
	}
	var series []string
	for _, m := range regexp.MustCompile(`frfc_campaign_jobs\{campaign="(c\d+)"`).FindAllSubmatch(fetch("/metrics"), -1) {
		series = append(series, string(m[1]))
	}
	for name, got := range map[string][]string{"/status": rows, "GET /campaigns": list, "/metrics": series} {
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s lists %v, want submission order %v", name, got, want)
		}
	}
}
