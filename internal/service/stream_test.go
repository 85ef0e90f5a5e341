package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
	"time"
)

// streamHashes fetches the campaign's result stream (no wait) and returns the
// hash of each line, in stream order.
func streamHashes(t *testing.T, s *Service, c *Campaign) []string {
	t.Helper()
	var hashes []string
	sc := bufio.NewScanner(bytes.NewReader(resultsBytes(t, s, c)))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var e struct {
			Hash string `json:"hash"`
		}
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil || e.Hash == "" {
			t.Fatalf("stream line is not a store line (%v): %s", err, sc.Bytes())
		}
		hashes = append(hashes, e.Hash)
	}
	return hashes
}

// TestPartialAndCancelledStreams: a stream requested without wait while the
// campaign is still running, and the stream of a cancelled campaign, list
// exactly the jobs that have finished with a stored result, in job order.
func TestPartialAndCancelledStreams(t *testing.T) {
	s, _ := newTestService(t, 1)
	c, err := s.Submit(slowReq("partial", 21))
	if err != nil {
		t.Fatal(err)
	}
	var inOrder []string
	for i := 0; i < c.jobs.len(); i++ {
		inOrder = append(inOrder, c.jobs.at(i).Hash())
	}
	deadline := time.Now().Add(60 * time.Second)
	for c.view(time.Now()).Done < 2 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}

	// One worker takes the jobs in order, so what has finished is a prefix of
	// the job list: as long as what was done before the request, no longer
	// than what was done after it.
	before := c.view(time.Now()).Done
	got := streamHashes(t, s, c)
	after := c.view(time.Now()).Done
	if before < 2 || after == c.jobs.len() {
		t.Fatalf("campaign not mid-run around the request: %d then %d of %d jobs done", before, after, c.jobs.len())
	}
	if len(got) < before || len(got) > after || !reflect.DeepEqual(got, inOrder[:len(got)]) {
		t.Fatalf("partial stream lists %v with %d..%d jobs done, want that prefix of %v", got, before, after, inOrder)
	}

	if _, ok := s.Cancel(c.ID()); !ok {
		t.Fatal("Cancel did not find the campaign")
	}
	waitDone(t, c)
	var want []string
	for i, row := range c.jobViews() {
		if row.State == "done" {
			want = append(want, inOrder[i])
		}
	}
	if v := c.view(time.Now()); v.Cancelled == 0 || len(want) != v.Simulated {
		t.Fatalf("cancelled campaign: %d rows done, view %+v", len(want), v)
	}
	if got := streamHashes(t, s, c); !reflect.DeepEqual(got, want) {
		t.Fatalf("cancelled campaign streams %v, want the finished jobs %v", got, want)
	}
}
