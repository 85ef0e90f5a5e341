package service

import (
	"bytes"
	"context"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"frfc/internal/experiment"
	"frfc/internal/harness"
)

func tinySpec() experiment.Spec {
	s := experiment.FR6(experiment.FastControl, 5)
	s.MeshRadix = 4
	return s.Scaled(150, 300)
}

// tinyJobs builds n distinct jobs sharing one tiny spec.
func tinyJobs(n int, seed uint64) []harness.Job {
	jobs := make([]harness.Job, n)
	for i := range jobs {
		jobs[i] = harness.Job{Spec: tinySpec(), Load: 0.2 + float64(i)*0.01, Seed: seed}
	}
	return jobs
}

// TestDBRotationAndReplay: a tiny segment limit forces rotation; a reopened
// database replays every segment and resolves every hash bit-identically.
func TestDBRotationAndReplay(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDB(dir, DBOptions{SegmentBytes: 512}) // a line is ~400 bytes
	if err != nil {
		t.Fatal(err)
	}
	jobs := tinyJobs(6, 1)
	res := experiment.Run(jobs[0].Spec, jobs[0].Load)
	for _, j := range jobs {
		if err := db.Put(j, j.Hash(), res); err != nil {
			t.Fatal(err)
		}
	}
	if s := db.Stats(); s.Segments < 3 {
		t.Fatalf("segments = %d, want rotation to have produced at least 3", s.Segments)
	}
	var snap1 bytes.Buffer
	if err := db.Snapshot(&snap1); err != nil {
		t.Fatal(err)
	}
	db.Close()

	db2, err := OpenDB(dir, DBOptions{SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if db2.Len() != len(jobs) {
		t.Fatalf("reopen resolves %d hashes, want %d", db2.Len(), len(jobs))
	}
	for _, j := range jobs {
		got, ok := db2.Get(j.Hash())
		if !ok {
			t.Fatalf("hash %s lost across reopen", j.Hash())
		}
		if !reflect.DeepEqual(got, res) {
			t.Fatalf("result changed across reopen")
		}
	}
	var snap2 bytes.Buffer
	if err := db2.Snapshot(&snap2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snap1.Bytes(), snap2.Bytes()) {
		t.Fatalf("snapshot not byte-identical across reopen:\n%s\nvs\n%s", snap1.String(), snap2.String())
	}
}

// TestDBOpensV6Segments is the upgrade path of the service database: a
// directory whose segments hold the parent's hash-v6 lines (flat observer keys
// inside result, harness/testdata/store-v6.jsonl) — one legacy segment with no
// checksum sidecar, one with — opens with nothing healed and nothing
// quarantined, decodes every line to its measurement with a nil sidecar, keeps
// the stored bytes as they are, and serves none of them to a current job: the
// same point submitted again is simulated, not deduplicated.
func TestDBOpensV6Segments(t *testing.T) {
	raw, err := os.ReadFile("../harness/testdata/store-v6.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(raw), []byte("\n"))
	dir := t.TempDir()
	var sums bytes.Buffer
	for i, seg := range [][][]byte{lines[:10], lines[10:]} {
		data := append(bytes.Join(seg, []byte("\n")), '\n')
		if err := os.WriteFile(filepath.Join(dir, segmentName(i)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, line := range lines[10:] {
		fmt.Fprintf(&sums, "%08x\n", crc32.Checksum(line, castagnoli))
	}
	if err := os.WriteFile(filepath.Join(dir, sumName(1)), sums.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	db, err := OpenDB(dir, DBOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st := db.Stats(); st.Entries != len(lines) || st.Healed != 0 || st.Quarantined != 0 {
		t.Fatalf("v6 database opened as %+v, want %d entries and nothing healed or quarantined", st, len(lines))
	}
	for _, line := range lines {
		e, err := harness.DecodeEntry(line)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := db.Get(e.Hash)
		if !ok || got.Observed != nil || got != e.Result || got.Cycles == 0 {
			t.Errorf("%s@%g: v6 line replayed as %+v (found %v)", e.Spec, e.Load, got, ok)
		}
		if stored, _ := db.GetLine(e.Hash); !bytes.Equal(stored, line) {
			t.Errorf("%s@%g: stored bytes changed across replay", e.Spec, e.Load)
		}
	}

	s := New(db, Options{Workers: 1})
	defer func() {
		s.Close(context.Background()) //nolint:errcheck // best-effort teardown
		db.Close()
	}()
	c, err := s.Submit(SweepRequest{Configs: []string{"FR6"}, Loads: []float64{0.2}, Sample: 400, Warmup: 600})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, c)
	if v := c.view(time.Now()); v.Simulated != 1 || v.Cached != 0 || v.Failed != 0 {
		t.Fatalf("the v6 row for FR6@0.2 answered a v7 job: %+v", v)
	}
	if db.Len() != len(lines)+1 {
		t.Fatalf("database holds %d entries after the rerun, want the %d v6 lines and the new one", db.Len(), len(lines))
	}
}

// TestDBHealsTornTail: a kill mid-write leaves a truncated last line; reopen
// heals it (counts it, keeps every complete line) and the next Put appends
// cleanly.
func TestDBHealsTornTail(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDB(dir, DBOptions{})
	if err != nil {
		t.Fatal(err)
	}
	jobs := tinyJobs(3, 2)
	res := experiment.Run(jobs[0].Spec, jobs[0].Load)
	for _, j := range jobs[:2] {
		if err := db.Put(j, j.Hash(), res); err != nil {
			t.Fatal(err)
		}
	}
	db.Close()

	// Tear the tail: drop the last 20 bytes of the only segment, and the
	// matching checksum line — a kill mid-write loses both together. (A
	// torn data line under an intact checksum is corruption, not a tear,
	// and is quarantined instead; see db_crash_test.go.)
	seg := filepath.Join(dir, segmentName(0))
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, raw[:len(raw)-20], 0o644); err != nil {
		t.Fatal(err)
	}
	sums, err := os.ReadFile(filepath.Join(dir, sumName(0)))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, sumName(0)), sums[:len(sums)-9], 0o644); err != nil {
		t.Fatal(err)
	}

	db2, err := OpenDB(dir, DBOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	s := db2.Stats()
	if s.Entries != 1 || s.Healed != 1 {
		t.Fatalf("entries=%d healed=%d, want 1/1", s.Entries, s.Healed)
	}
	if _, ok := db2.Get(jobs[0].Hash()); !ok {
		t.Fatal("intact first line lost while healing")
	}
	// The torn job and a new one append cleanly after healing.
	for _, j := range jobs[1:] {
		if err := db2.Put(j, j.Hash(), res); err != nil {
			t.Fatal(err)
		}
	}
	if db2.Len() != 3 {
		t.Fatalf("len = %d after re-put, want 3", db2.Len())
	}
}

// TestDBConcurrentAccess: two goroutines putting disjoint job sets while a
// reader Gets concurrently — under -race — must leave no torn records: a
// reopened database heals nothing and resolves every hash exactly once.
func TestDBConcurrentAccess(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDB(dir, DBOptions{SegmentBytes: 1024}) // rotate under load too
	if err != nil {
		t.Fatal(err)
	}
	sets := [][]harness.Job{tinyJobs(8, 11), tinyJobs(8, 22)}
	res := experiment.Run(sets[0][0].Spec, sets[0][0].Load)

	var writers, reader sync.WaitGroup
	for _, jobs := range sets {
		writers.Add(1)
		go func(jobs []harness.Job) {
			defer writers.Done()
			for _, j := range jobs {
				if err := db.Put(j, j.Hash(), res); err != nil {
					t.Errorf("Put: %v", err)
				}
			}
		}(jobs)
	}
	stop := make(chan struct{})
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, jobs := range sets {
				for _, j := range jobs {
					if r, ok := db.Get(j.Hash()); ok && !reflect.DeepEqual(r, res) {
						t.Error("reader observed a torn result")
						return
					}
				}
			}
		}
	}()
	writers.Wait()
	close(stop)
	reader.Wait()
	db.Close()

	db2, err := OpenDB(dir, DBOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	s := db2.Stats()
	if s.Healed != 0 {
		t.Fatalf("reopen healed %d lines: concurrent puts tore records", s.Healed)
	}
	if want := len(sets[0]) + len(sets[1]); s.Entries != want {
		t.Fatalf("entries = %d, want %d", s.Entries, want)
	}
	for _, jobs := range sets {
		for _, j := range jobs {
			if _, ok := db2.Get(j.Hash()); !ok {
				t.Fatalf("hash %s lost", j.Hash())
			}
		}
	}
}

// TestDBClosedPut: a Put after Close must error, not silently recreate a
// segment.
func TestDBClosedPut(t *testing.T) {
	db, err := OpenDB(t.TempDir(), DBOptions{})
	if err != nil {
		t.Fatal(err)
	}
	db.Close()
	j := tinyJobs(1, 3)[0]
	if err := db.Put(j, j.Hash(), experiment.Result{}); err == nil {
		t.Fatal("Put after Close succeeded")
	}
}

// TestDBSegmentOrder: segment files sort lexicographically in creation order,
// which replay's last-write-wins depends on.
func TestDBSegmentOrder(t *testing.T) {
	names := []string{segmentName(2), segmentName(10), segmentName(1)}
	sort.Strings(names)
	want := []string{segmentName(1), segmentName(2), segmentName(10)}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("segment names sort as %v, want %v", names, want)
	}
}
