package harness

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"frfc/internal/experiment"
)

// TestZeroStoreIsAMemoryCache: the zero Store serves what Put recorded, writes
// no file, and closes without error.
func TestZeroStoreIsAMemoryCache(t *testing.T) {
	var st Store
	j := Job{Spec: tinySpec(), Load: 0.25}
	if _, ok := st.Get(j.Hash()); ok || st.Len() != 0 {
		t.Fatal("an empty zero Store served a result")
	}
	want := experiment.Result{Spec: "FR6", Load: 0.25, AvgLatency: 31.5}
	if err := st.Put(j, j.Hash(), want); err != nil {
		t.Fatal(err)
	}
	if got, ok := st.Get(j.Hash()); !ok || got != want || st.Len() != 1 {
		t.Errorf("Get = %+v, %v (len %d), want %+v", got, ok, st.Len(), want)
	}
	if err := st.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
}

// TestStoreRoundTrip: results written by Put come back from a reopened store
// bit-identical, unobserved and observed alike. An unobserved run's line has no
// Observed key and its Result is comparable with == to a second run's; an
// observed run's sidecar survives the trip by value.
func TestStoreRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.jsonl")
	st, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	bare := Job{Spec: tinySpec(), Load: 0.25}
	res := experiment.Run(bare.Spec, bare.Load)
	if res.Observed != nil || res != experiment.Run(bare.Spec, bare.Load) {
		t.Fatalf("an unobserved run is not == to its rerun: %+v", res)
	}
	if err := st.Put(bare, bare.Hash(), res); err != nil {
		t.Fatal(err)
	}
	observed := Job{Spec: tinyVC(), Load: 0.25}
	obs, err := experiment.RunInstrumented(context.Background(), observed.Spec, observed.Load,
		experiment.Instruments{Probe: observing(true, true)()})
	if err != nil || obs.Observed == nil || obs.Observed.Activity == nil || obs.Observed.Waterfall == nil {
		t.Fatalf("observed run: %v, sidecar %+v", err, obs.Observed)
	}
	if err := st.Put(observed, observed.Hash(), obs); err != nil {
		t.Fatal(err)
	}
	st.Close()

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.SplitN(string(raw), "\n", 2); strings.Contains(lines[0], "Observed") || !strings.Contains(lines[1], `"Observed":{"Activity":{"ticks":`) {
		t.Fatalf("want the sidecar on the observed line only:\n%s", raw)
	}
	st2, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	for _, want := range []struct {
		job Job
		res experiment.Result
	}{{bare, res}, {observed, obs}} {
		got, ok := st2.Get(want.job.Hash())
		if !ok {
			t.Fatal("entry lost across reopen")
		}
		if !reflect.DeepEqual(got, want.res) {
			t.Fatalf("result changed across the store round trip:\ngot:  %+v\nwant: %+v", got, want.res)
		}
	}
}

// TestCacheHitMissAndResume: a second campaign over the same jobs must
// execute zero simulations — every point is a cache hit — and a third over a
// superset must simulate only the new points.
func TestCacheHitMissAndResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.jsonl")
	jobs := []Job{
		{Spec: tinySpec(), Load: 0.2},
		{Spec: tinySpec(), Load: 0.3},
	}

	st, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	first, err := RunJobs(context.Background(), jobs, Options{Workers: 2, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	for i, jr := range first {
		if jr.Cached {
			t.Errorf("job %d cached on a cold store", i)
		}
	}

	st, err = OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	second, err := RunJobs(context.Background(), jobs, Options{Workers: 2, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	for i, jr := range second {
		if !jr.Cached {
			t.Errorf("job %d re-simulated despite a warm store", i)
		}
		if !reflect.DeepEqual(jr.Result, first[i].Result) {
			t.Errorf("job %d cached result differs from the original", i)
		}
	}

	superset := append(jobs, Job{Spec: tinySpec(), Load: 0.4})
	third, err := RunJobs(context.Background(), superset, Options{Workers: 2, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	if !third[0].Cached || !third[1].Cached || third[2].Cached {
		t.Errorf("superset cache pattern wrong: %v %v %v", third[0].Cached, third[1].Cached, third[2].Cached)
	}
}

// TestResumeAfterPartialWrite: a store whose final line was cut mid-write (a
// killed campaign) must load every complete line, drop the partial one, and
// let the campaign re-run exactly the lost point.
func TestResumeAfterPartialWrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.jsonl")
	jobs := []Job{
		{Spec: tinySpec(), Load: 0.2},
		{Spec: tinySpec(), Load: 0.3},
	}
	st, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunJobs(context.Background(), jobs, Options{Workers: 1, Store: st}); err != nil {
		t.Fatal(err)
	}
	st.Close()

	// Cut the file mid-way through the last line.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("expected 2 store lines, got %d", len(lines))
	}
	cut := len(data) - len(lines[1])/2
	if err := os.Truncate(path, int64(cut)); err != nil {
		t.Fatal(err)
	}

	st, err = OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.Len() != 1 {
		t.Fatalf("store loaded %d entries from truncated file, want 1", st.Len())
	}
	if st.Skipped() != 1 {
		t.Errorf("store skipped %d lines, want 1", st.Skipped())
	}
	results, err := RunJobs(context.Background(), jobs, Options{Workers: 1, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	if !results[0].Cached {
		t.Error("intact entry was re-simulated")
	}
	if results[1].Cached {
		t.Error("truncated entry was served from cache")
	}
	if results[1].Err != "" {
		t.Fatalf("re-run of lost point failed: %s", results[1].Err)
	}

	// The store healed its tail: a fresh open must now see both entries.
	st2, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.Len() != 2 {
		t.Fatalf("store holds %d entries after resume, want 2 (file tail not healed?)", st2.Len())
	}
}

// TestStoreIgnoresForeignJunk: garbage lines anywhere in the file are counted
// and skipped, never fatal.
func TestStoreIgnoresForeignJunk(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.jsonl")
	if err := os.WriteFile(path, []byte("not json\n{\"hash\":\"\"}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.Len() != 0 || st.Skipped() != 2 {
		t.Fatalf("len=%d skipped=%d, want 0/2", st.Len(), st.Skipped())
	}
}

// TestStoreConcurrentAppendAndRead: two goroutines appending distinct jobs to
// one store while a third reads back — under -race — must produce no torn
// records: a reopened store resolves every hash with zero skipped lines, and
// dedup-by-hash yields exactly one entry per job.
func TestStoreConcurrentAppendAndRead(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.jsonl")
	st, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}

	// Two disjoint job sets, one per writer; both writers also re-Put their
	// first job so the dedup-by-hash path runs concurrently with appends.
	mkJobs := func(seed uint64, n int) []Job {
		jobs := make([]Job, n)
		for i := range jobs {
			jobs[i] = Job{Spec: tinySpec(), Load: 0.2 + float64(i)*0.01, Seed: seed}
		}
		return jobs
	}
	sets := [][]Job{mkJobs(11, 8), mkJobs(22, 8)}
	res := experiment.Run(sets[0][0].Spec, sets[0][0].Load) // one shared result is fine: the store keys by hash

	var writers, reader sync.WaitGroup
	for _, jobs := range sets {
		writers.Add(1)
		go func(jobs []Job) {
			defer writers.Done()
			for _, j := range jobs {
				if err := st.Put(j, j.Hash(), res); err != nil {
					t.Errorf("Put: %v", err)
				}
			}
			if err := st.Put(jobs[0], jobs[0].Hash(), res); err != nil { // duplicate hash
				t.Errorf("re-Put: %v", err)
			}
		}(jobs)
	}
	stop := make(chan struct{})
	reader.Add(1)
	go func() { // concurrent reader racing the appends
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, jobs := range sets {
				for _, j := range jobs {
					if r, ok := st.Get(j.Hash()); ok && !reflect.DeepEqual(r, res) {
						t.Error("reader observed a torn or foreign result")
						return
					}
				}
			}
		}
	}()
	writers.Wait()
	close(stop)
	reader.Wait()
	st.Close()

	// Reopen: every line must decode (no torn records) and dedup-by-hash must
	// resolve exactly one entry per distinct job.
	st2, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.Skipped() != 0 {
		t.Fatalf("reopen skipped %d lines: concurrent appends tore records", st2.Skipped())
	}
	if want := len(sets[0]) + len(sets[1]); st2.Len() != want {
		t.Fatalf("reopen holds %d entries, want %d", st2.Len(), want)
	}
	for _, jobs := range sets {
		for _, j := range jobs {
			if _, ok := st2.Get(j.Hash()); !ok {
				t.Fatalf("hash %s lost", j.Hash())
			}
		}
	}
}
