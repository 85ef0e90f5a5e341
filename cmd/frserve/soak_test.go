package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"frfc/internal/experiment"
	"frfc/internal/harness"
	"frfc/internal/iofault"
	"frfc/internal/service"
)

// The kill-9 recovery soak: a real frserve process is murdered with SIGKILL
// at seeded fsync boundaries, over and over, and every recovery must uphold
// the store's durability contract:
//
//   - every result fsynced before the kill is present after replay
//   - the index never corrupts: zero quarantined lines, every surviving line
//     byte-identical to the reference store
//   - resubmitting the campaign re-executes only what was never synced —
//     survivors resolve as dedup hits
//
// The schedule is deterministic (iofault.SeededSync), so a failure reproduces
// exactly. The child is this same test binary re-executed with
// FRSERVE_SOAK_CHILD=1, running the real daemon over a fault-injected
// filesystem whose kill fault delivers a genuine SIGKILL — no deferred
// cleanup, no flush, the real thing.

// soakLoads and soakSeed pin the campaign the soak resubmits every cycle.
var soakLoads = []float64{0.2, 0.24, 0.28, 0.32, 0.36, 0.4}

const soakSeed = 1234

func soakBody() string {
	parts := make([]string, len(soakLoads))
	for i, l := range soakLoads {
		parts[i] = fmt.Sprintf("%g", l)
	}
	return fmt.Sprintf(`{"name":"soak","configs":["FR6"],"loads":[%s],"sample":150,"warmup":300,"seed":%d}`,
		strings.Join(parts, ","), soakSeed)
}

// oneShot computes, in-process, the exact store lines a campaign over the grid
// produces, in the order its results stream — the byte-level truth the soak
// checks every surviving segment line against and the drills check streams
// against. It expands the grid as SweepRequest.jobs() does.
func oneShot(t *testing.T, g experiment.Grid) (lines map[string]bool, ordered []byte) {
	t.Helper()
	loads, err := g.LoadPoints()
	if err != nil {
		t.Fatal(err)
	}
	specs, err := g.Specs()
	if err != nil {
		t.Fatal(err)
	}
	lines = make(map[string]bool, len(specs)*len(loads))
	var buf bytes.Buffer
	for _, spec := range specs {
		for _, l := range loads {
			j := harness.Job{Spec: spec, Load: l}
			line, err := harness.MarshalEntry(j, j.Hash(), experiment.Run(spec, l))
			if err != nil {
				t.Fatal(err)
			}
			lines[string(line)] = true
			buf.Write(append(line, '\n'))
		}
	}
	return lines, buf.Bytes()
}

// TestSoakChild is the re-exec target, not a test: under FRSERVE_SOAK_CHILD
// it becomes a real frserve daemon over a fault-injected filesystem and
// serves until the injected SIGKILL (or the parent's) takes it down.
func TestSoakChild(t *testing.T) {
	if os.Getenv("FRSERVE_SOAK_CHILD") != "1" {
		t.Skip("re-exec target for the kill-9 soak")
	}
	run([]string{
		"-addr", "127.0.0.1:0",
		"-db", os.Getenv("FRSERVE_SOAK_DB"),
		"-workers", "2",
		"-iofault", os.Getenv("FRSERVE_SOAK_PLAN"),
	}, os.Stderr)
	// Only reachable when the kill boundary was never hit (campaign fully
	// synced first); the parent SIGKILLs us. Block rather than exit so the
	// test framework doesn't report a pass for a process meant to die.
	select {}
}

var apiLine = regexp.MustCompile(`API on http://([^/]+)/campaigns`)

// spawnSoakChild re-execs the test binary as a fault-injected daemon and
// returns the child plus its scraped listen address.
func spawnSoakChild(t *testing.T, dbDir, plan string) (*exec.Cmd, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^TestSoakChild$")
	cmd.Env = append(os.Environ(),
		"FRSERVE_SOAK_CHILD=1",
		"FRSERVE_SOAK_DB="+dbDir,
		"FRSERVE_SOAK_PLAN="+plan,
	)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if m := apiLine.FindStringSubmatch(sc.Text()); m != nil {
				addrCh <- m[1]
			}
		}
	}()
	select {
	case addr := <-addrCh:
		return cmd, addr
	case <-time.After(30 * time.Second):
		cmd.Process.Kill() //nolint:errcheck // already failing
		cmd.Wait()         //nolint:errcheck
		t.Fatalf("child daemon never announced its API (plan %q)", plan)
		return nil, ""
	}
}

// TestKillNineRecoverySoak is the tentpole soak. 20 seeded cycles: start a
// real daemon over the shared database, submit the campaign, let the
// injected SIGKILL land at that cycle's fsync boundary, then replay the
// survivors and hold them to the durability contract. A final clean daemon
// finishes the campaign purely from dedup plus the unsynced remainder, and
// offline compaction squeezes the kill-littered segments into one.
func TestKillNineRecoverySoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak is not short")
	}
	refLines, refStream := oneShot(t, experiment.Grid{Configs: []string{"FR6"}, Loads: soakLoads, Sample: 150, Warmup: 300, Seed: soakSeed})
	dbDir := filepath.Join(t.TempDir(), "db")
	client := &http.Client{Timeout: 60 * time.Second}

	const cycles = 20
	// Every Put under FsyncAlways costs two syncs (data, sidecar); the first
	// cycle performs at most 2*len(soakLoads). Seeding inside that range
	// makes early cycles die mid-campaign; later cycles, running mostly on
	// dedup hits, sync less and often outlive their fault — the parent's
	// SIGKILL covers those.
	maxSync := int64(2 * len(soakLoads))
	prevEntries := 0
	killedByFault := 0
	for cycle := 0; cycle < cycles; cycle++ {
		fault := iofault.SeededSync(uint64(cycle)+77, maxSync, true)
		cmd, addr := spawnSoakChild(t, dbDir, fault.String())

		// Drive the campaign; the child may die mid-request, which is the
		// point — both calls tolerate transport errors.
		resp, err := client.Post("http://"+addr+"/campaigns", "application/json",
			strings.NewReader(soakBody()))
		var campID string
		if err == nil {
			var c struct {
				ID string `json:"id"`
			}
			json.NewDecoder(resp.Body).Decode(&c) //nolint:errcheck // child may vanish mid-body
			resp.Body.Close()
			campID = c.ID
		}
		if campID != "" {
			if resp, err := client.Get("http://" + addr + "/campaigns/" + campID + "/results?wait=1"); err == nil {
				io.Copy(io.Discard, resp.Body) //nolint:errcheck
				resp.Body.Close()
			}
		}
		// Either the fault killed it or the campaign fully synced: finish it.
		cmd.Process.Kill() //nolint:errcheck // may already be dead
		err = cmd.Wait()
		if err != nil && strings.Contains(err.Error(), "signal: killed") {
			killedByFault++ // counts parent kills too; only the sum matters
		}

		// Recovery: replay the survivors over the real filesystem.
		db, err := service.OpenDB(dbDir, service.DBOptions{})
		if err != nil {
			t.Fatalf("cycle %d (fault %q): reopen: %v", cycle, fault, err)
		}
		st := db.Stats()
		if st.Quarantined != 0 {
			t.Fatalf("cycle %d (fault %q): %d quarantined lines after a sync-boundary kill",
				cycle, fault, st.Quarantined)
		}
		if st.Entries < prevEntries {
			t.Fatalf("cycle %d (fault %q): entries %d < %d — a previously fsynced result vanished",
				cycle, fault, st.Entries, prevEntries)
		}
		var snap bytes.Buffer
		if err := db.Snapshot(&snap); err != nil {
			t.Fatalf("cycle %d: snapshot: %v", cycle, err)
		}
		for _, line := range bytes.Split(bytes.TrimRight(snap.Bytes(), "\n"), []byte("\n")) {
			if len(line) == 0 {
				continue
			}
			if !refLines[string(line)] {
				t.Fatalf("cycle %d (fault %q): surviving line is not byte-identical to the reference:\n%s",
					cycle, fault, line)
			}
		}
		prevEntries = st.Entries
		db.Close()
	}
	t.Logf("soak: %d cycles, %d ended in SIGKILL, %d/%d results durable going into the clean run",
		cycles, killedByFault, prevEntries, len(soakLoads))

	// Clean daemon over the battle-scarred database: the resubmission must
	// resolve every survivor from dedup, execute only the remainder, and
	// stream results byte-identical to the reference.
	d := testDaemon(t, dbDir)
	base := "http://" + d.addr()
	c := submit(t, base, soakBody())
	stream := results(t, base, c.ID)
	if !bytes.Equal(stream, refStream) {
		t.Fatalf("post-soak results differ from reference:\ngot:\n%s\nwant:\n%s", stream, refStream)
	}
	_, b := doJSON(t, "GET", base+"/campaigns/"+c.ID, "")
	var detail campaignJSON
	if err := json.Unmarshal(b, &detail); err != nil {
		t.Fatal(err)
	}
	if detail.Cached != prevEntries || detail.Simulated != len(soakLoads)-prevEntries {
		t.Fatalf("resubmission executed the wrong jobs: cached=%d simulated=%d, want %d/%d",
			detail.Cached, detail.Simulated, prevEntries, len(soakLoads)-prevEntries)
	}
	if err := d.shutdown(10 * time.Second); err != nil {
		t.Fatalf("clean shutdown: %v", err)
	}

	// Offline compaction through the CLI path squeezes the kill-littered
	// directory to one segment without losing an entry.
	var cerr bytes.Buffer
	if code := run([]string{"-db", dbDir, "-compact"}, &cerr); code != 0 {
		t.Fatalf("frserve -compact exited %d:\n%s", code, cerr.String())
	}
	db, err := service.OpenDB(dbDir, service.DBOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	st := db.Stats()
	if st.Entries != len(soakLoads) || st.Segments != 1 || st.Quarantined != 0 || st.Healed != 0 {
		t.Fatalf("post-compact stats: %+v, want %d entries in 1 clean segment", st, len(soakLoads))
	}
}

// drillBody is the campaign the corruption drill stores, corrupts and
// resubmits: FR6 and VC8 at two loads, four results.
const drillBody = `{"configs":["FR6","VC8"],"from":0.2,"to":0.4,"step":0.2,"sample":150,"warmup":300}`

// TestCorruptionDrill flips one byte in the middle of a stored result — bytes
// that were once whole and now lie — and holds replay to the quarantine
// contract: the line is quarantined, not served and not fatal; the daemon logs
// it and exports it on /metrics; the quarantine file holds the corrupt bytes;
// a resubmission re-executes exactly that job and streams the one-shot
// reference byte for byte; and offline compaction leaves one clean segment.
func TestCorruptionDrill(t *testing.T) {
	_, ref := oneShot(t, experiment.Grid{Configs: []string{"FR6", "VC8"}, From: 0.2, To: 0.4, Step: 0.2, Sample: 150, Warmup: 300})
	dbDir := filepath.Join(t.TempDir(), "db")
	d := testDaemon(t, dbDir)
	base := "http://" + d.addr()
	if stream := results(t, base, submit(t, base, drillBody).ID); !bytes.Equal(stream, ref) {
		t.Fatalf("first stream differs from the one-shot reference:\ngot:\n%s\nwant:\n%s", stream, ref)
	}
	if err := d.shutdown(10 * time.Second); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	seg := filepath.Join(dbDir, "seg-000000.jsonl")
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	raw[50] ^= 0xFF // mid-way through the first line
	if err := os.WriteFile(seg, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	corrupt, _, _ := bytes.Cut(raw, []byte("\n"))

	var log bytes.Buffer
	d = startDaemon(t, config{addr: "127.0.0.1:0", dbDir: dbDir, workers: 2}, &log)
	base = "http://" + d.addr()
	if !strings.Contains(log.String(), "quarantined 1 corrupt line") {
		t.Errorf("replay log does not report the quarantined line:\n%s", log.String())
	}
	if _, m := doJSON(t, "GET", base+"/metrics", ""); !strings.Contains(string(m), "\nfrfc_service_quarantined_total 1\n") {
		t.Errorf("/metrics does not export the quarantined line:\n%s", m)
	}
	if q, err := os.ReadFile(filepath.Join(dbDir, "seg-000000.quarantine")); err != nil || !bytes.Equal(q, append(corrupt, '\n')) {
		t.Errorf("quarantine file holds %q (%v), want the corrupt line", q, err)
	}

	c := submit(t, base, drillBody)
	if stream := results(t, base, c.ID); !bytes.Equal(stream, ref) {
		t.Fatalf("resubmitted stream differs from the one-shot reference:\ngot:\n%s\nwant:\n%s", stream, ref)
	}
	_, b := doJSON(t, "GET", base+"/campaigns/"+c.ID, "")
	var detail campaignJSON
	if err := json.Unmarshal(b, &detail); err != nil {
		t.Fatal(err)
	}
	if detail.State != "done" || detail.Cached != 3 || detail.Simulated != 1 {
		t.Fatalf("resubmission: %+v, want done with 3 cached and the quarantined job simulated", detail)
	}
	if err := d.shutdown(10 * time.Second); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	var cerr bytes.Buffer
	if code := run([]string{"-db", dbDir, "-compact"}, &cerr); code != 0 {
		t.Fatalf("frserve -compact exited %d:\n%s", code, cerr.String())
	}
	if segs, err := filepath.Glob(filepath.Join(dbDir, "seg-*.jsonl")); err != nil || len(segs) != 1 {
		t.Fatalf("after compaction: segments %v (%v), want one", segs, err)
	}
}

var storeErrors = regexp.MustCompile(`(?m)^frfc_service_store_errors_total (\d+)$`)

// TestEIODrill runs a daemon whose database fails its first data write with
// EIO: it keeps serving, the campaign finishes with the job that hit the bad
// disk failed, the store error is counted on /metrics, and liveness holds.
func TestEIODrill(t *testing.T) {
	d := startDaemon(t, config{addr: "127.0.0.1:0", dbDir: filepath.Join(t.TempDir(), "db"), workers: 1, iofaultPlan: "eio write @0"}, io.Discard)
	base := "http://" + d.addr()
	c := submit(t, base, `{"configs":["FR6"],"loads":[0.2,0.25],"sample":150,"warmup":300}`)
	results(t, base, c.ID)
	_, b := doJSON(t, "GET", base+"/campaigns/"+c.ID, "")
	var detail campaignJSON
	if err := json.Unmarshal(b, &detail); err != nil {
		t.Fatal(err)
	}
	if detail.State != "done" || detail.Failed < 1 {
		t.Errorf("campaign over the bad disk: %+v, want done with a job failed", detail)
	}
	_, m := doJSON(t, "GET", base+"/metrics", "")
	if n := storeErrors.FindSubmatch(m); n == nil || string(n[1]) == "0" {
		t.Errorf("/metrics does not count the store error:\n%s", m)
	}
	if code, b := doJSON(t, "GET", base+"/healthz", ""); code != http.StatusOK {
		t.Errorf("/healthz = %d %s, want 200", code, b)
	}
}
