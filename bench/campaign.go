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
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"frfc"
)

// The campaign every round submits: FR6 and VC8 over thirty loads, each job
// a small one. A cold campaign carries a seed the server has never seen, so
// all of its jobs simulate; a warm one repeats the cold body byte for byte,
// so all of its jobs are answered from the result database.
var campaignConfigs = []string{"FR6", "VC8"}

const (
	campaignFrom = 0.02
	campaignTo   = 0.60
	campaignStep = 0.02
	warmPerRound = 50
	quickWarm    = 3
	// roundsPerSecond turns the seconds a run is given into a fixed number
	// of rounds. The count is fixed, not the time, because the daemon keeps
	// every campaign it has served and a warm resubmission slows as that
	// history grows: the same number of campaigns must stand behind every
	// median that is compared.
	roundsPerSecond = 0.6
	minRounds       = 3
	// mixRounds is how many rounds' jobs are run again through the library
	// for the allocation counts: enough jobs that the counts of two seeds
	// differ by well under their bound.
	mixRounds       = 4
	frservePath     = outDir + "/frserve"
	readyTimeout    = 30 * time.Second
	shutdownTimeout = 20 * time.Second
)

// campaignLoads expands the load grid with the accumulation loop the server
// runs, so the client knows exactly which jobs a campaign holds.
func campaignLoads() []float64 {
	var loads []float64
	for l := campaignFrom; l <= campaignTo+1e-9; l += campaignStep {
		loads = append(loads, l)
	}
	return loads
}

func campaignBody(seed uint64) []byte {
	b, err := json.Marshal(map[string]any{
		"configs": campaignConfigs,
		"from":    campaignFrom, "to": campaignTo, "step": campaignStep,
		"sample": smallSample, "warmup": smallWarmup,
		"seed": seed,
	})
	if err != nil {
		panic(err) // a map of numbers and strings always encodes
	}
	return b
}

// server is one frserve process and the single connection to it.
type server struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	stderr *bytes.Buffer
	drain  chan struct{}
}

var apiLine = regexp.MustCompile(`API on (http://[^/]+)/campaigns`)

// startServer spawns frserve on dbDir and returns once /readyz answers 200,
// with the wall time from spawn to that answer.
func startServer(dbDir string) (*server, time.Duration, error) {
	workers := min(2, runtime.NumCPU())
	cmd := exec.Command(frservePath, "-addr", "127.0.0.1:0", "-db", dbDir, "-workers", strconv.Itoa(workers))
	pipe, err := cmd.StderrPipe()
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start %s: %w", frservePath, err)
	}
	s := &server{
		cmd: cmd, stderr: &bytes.Buffer{}, drain: make(chan struct{}),
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}},
	}
	// The daemon logs its bound address once; everything it logs afterwards
	// is kept for the failure report. The goroutine ends when the daemon
	// closes its stderr, which stop waits for.
	addr := make(chan string, 1)
	go func() {
		defer close(s.drain)
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			line := sc.Text()
			s.stderr.WriteString(line + "\n")
			if m := apiLine.FindStringSubmatch(line); m != nil {
				select {
				case addr <- m[1]:
				default:
				}
			}
		}
	}()
	select {
	case s.base = <-addr:
	case <-s.drain:
		cmd.Wait() //nolint:errcheck // the log below says why it exited
		return nil, 0, fmt.Errorf("frserve exited before listening:\n%s", s.stderr)
	case <-time.After(readyTimeout):
		s.stop()
		return nil, 0, fmt.Errorf("frserve did not announce its address within %s", readyTimeout)
	}
	for {
		resp, err := s.client.Get(s.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // only the status matters
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(start), nil
			}
		}
		if time.Since(start) > readyTimeout {
			s.stop()
			return nil, 0, fmt.Errorf("frserve not ready within %s", readyTimeout)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop shuts the daemon down with SIGTERM, waits until it has exited, and
// returns its resource usage. A daemon that ignores the signal is killed.
func (s *server) stop() (*os.ProcessState, error) {
	s.client.CloseIdleConnections()
	s.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // already exited is fine
	kill := time.AfterFunc(shutdownTimeout, func() { s.cmd.Process.Kill() })
	<-s.drain
	err := s.cmd.Wait()
	kill.Stop()
	return s.cmd.ProcessState, err
}

// exchange is one submission followed to its last result byte.
type exchange struct {
	id     string
	status string // "" when every response was the expected 2xx
	body   []byte // the results stream
	// The four instants of an exchange: request sent, 201 read, first
	// result byte, last result byte.
	sent, acked, first, last time.Time
}

func (e exchange) wallMs() float64 { return e.last.Sub(e.sent).Seconds() * 1000 }

// submit posts a campaign and reads its results stream to the end.
func (s *server) submit(body []byte) exchange {
	var e exchange
	e.sent = time.Now()
	resp, err := s.client.Post(s.base+"/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		e.status = "POST /campaigns: " + err.Error()
		return e
	}
	ack, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	e.acked = time.Now()
	if err != nil || resp.StatusCode != http.StatusCreated {
		e.status = fmt.Sprintf("POST /campaigns: status %d: %s", resp.StatusCode, strings.TrimSpace(string(ack)))
		return e
	}
	var view struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(ack, &view); err != nil || view.ID == "" {
		e.status = "POST /campaigns: no campaign id in " + string(ack)
		return e
	}
	e.id = view.ID
	resp, err = s.client.Get(s.base + "/campaigns/" + e.id + "/results?wait=1")
	if err != nil {
		e.status = "GET results: " + err.Error()
		return e
	}
	defer resp.Body.Close()
	var one [1]byte
	n, err := io.ReadFull(resp.Body, one[:])
	e.first = time.Now()
	rest, rerr := io.ReadAll(resp.Body)
	e.last = time.Now()
	if resp.StatusCode != http.StatusOK || (err != nil && err != io.EOF && err != io.ErrUnexpectedEOF) || rerr != nil {
		e.status = fmt.Sprintf("GET results: status %d, read errors %v / %v", resp.StatusCode, err, rerr)
		return e
	}
	e.body = append(one[:n:n], rest...)
	return e
}

// campaignCounts fetches a finished campaign's summary.
func (s *server) campaignCounts(id string) (simulated, cached, failed int, err error) {
	resp, err := s.client.Get(s.base + "/campaigns/" + id)
	if err != nil {
		return 0, 0, 0, err
	}
	defer resp.Body.Close()
	var v struct {
		Simulated int `json:"simulated"`
		Cached    int `json:"cached"`
		Failed    int `json:"failed"`
	}
	if resp.StatusCode != http.StatusOK {
		return 0, 0, 0, fmt.Errorf("GET /campaigns/%s: status %d", id, resp.StatusCode)
	}
	err = json.NewDecoder(resp.Body).Decode(&v)
	return v.Simulated, v.Cached, v.Failed, err
}

// scrape reads the frfc_service_* values from /metrics.
func (s *server) scrape() (map[string]float64, error) {
	resp, err := s.client.Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || !strings.HasPrefix(name, "frfc_service_") {
			continue
		}
		if f, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = f
		}
	}
	return out, sc.Err()
}

// resultLines splits a results stream and decodes the statistics of each line.
func resultLines(body []byte) ([]simStats, error) {
	var out []simStats
	for _, line := range bytes.Split(bytes.TrimSuffix(body, []byte("\n")), []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var entry struct {
			Result simStats `json:"result"`
		}
		if err := json.Unmarshal(line, &entry); err != nil {
			return nil, fmt.Errorf("result line: %w", err)
		}
		out = append(out, entry.Result)
	}
	return out, nil
}

// roundSample is what one round of the campaign workload yields. Three
// reference passes frame it: one before the cold campaign, one between it and
// the warm ones, one after them.
type roundSample struct {
	coldMs    float64
	coldCycle float64 // simulated cycles of the cold campaign's jobs
	warmMs    []float64
	hCold     float64 // host-speed factor over the cold campaign
	hWarm     float64 // and over the warm ones
}

// rounds holds everything the round loop measured.
type rounds struct {
	samples []roundSample
	refs    []float64    // every reference pass, in order
	seed0   uint64       // round r submitted seed0+r
	mix     [][]simStats // what the daemon served in the first mixRounds rounds
	// Client-side span durations in milliseconds, split by kind.
	ackCold, ackWarm, waitCold, stream, coldAll, warmAll []float64
	streamBytes                                          float64
	// The daemon's own counters, scraped after the last round.
	storeErrors, rejected float64
}

// runRounds is the campaign workload's closed loop: one client, one
// connection, each request sent when the previous one has been read to its
// last byte. With a tracer it also records the spans of every exchange.
func runRounds(cfg childConfig, s *server, res *runResult, tr *tracer) rounds {
	jobs := len(campaignConfigs) * len(campaignLoads())
	warm := warmPerRound
	if cfg.quick {
		warm = quickWarm
	}
	nRounds := max(minRounds, int(cfg.seconds*roundsPerSecond))
	if cfg.quick {
		nRounds = 1
	}
	out := rounds{refs: []float64{refPass()}, seed0: cfg.seed*100000 + 1}
	record := func(e exchange, kind string) {
		if tr == nil || e.status != "" {
			return
		}
		root := tr.add("service.campaign", -1, e.sent, e.last.Sub(e.sent), map[string]any{"id": e.id, "kind": kind})
		tr.add("service.submit_ack", root, e.sent, e.acked.Sub(e.sent), nil)
		tr.add("service.wait", root, e.acked, e.first.Sub(e.acked), nil)
		tr.add("service.stream", root, e.first, e.last.Sub(e.first), nil)
	}
	ms := func(a, b time.Time) float64 { return b.Sub(a).Seconds() * 1000 }
	for r := 0; r < nRounds; r++ {
		body := campaignBody(out.seed0 + uint64(r))
		cold := s.submit(body)
		record(cold, "cold")
		why := cold.status
		var lines []simStats
		if why == "" {
			var err error
			if lines, err = resultLines(cold.body); err != nil {
				why = err.Error()
			} else if len(lines) != jobs {
				why = fmt.Sprintf("%d result lines, want %d", len(lines), jobs)
			} else if sim, _, failed, err := s.campaignCounts(cold.id); err != nil {
				why = err.Error()
			} else if sim != jobs || failed != 0 {
				why = fmt.Sprintf("simulated %d failed %d, want %d and 0", sim, failed, jobs)
			}
		}
		if why != "" {
			res.op(fmt.Sprintf("cold campaign round %d: %s", r, why))
			return out
		}
		res.op("")
		if r < mixRounds {
			out.mix = append(out.mix, lines)
		}
		sample := roundSample{coldMs: cold.wallMs()}
		for _, l := range lines {
			sample.coldCycle += float64(l.Cycles)
		}
		out.refs = append(out.refs, refPass())
		sample.hCold = hostFactor(out.refs[len(out.refs)-2], out.refs[len(out.refs)-1])
		out.ackCold = append(out.ackCold, ms(cold.sent, cold.acked))
		out.waitCold = append(out.waitCold, ms(cold.acked, cold.first))
		out.coldAll = append(out.coldAll, sample.coldMs)

		for i := 0; i < warm; i++ {
			e := s.submit(body)
			record(e, "warm")
			why := e.status
			if why == "" && !bytes.Equal(e.body, cold.body) {
				why = "warm results differ from the cold results"
			}
			if why == "" {
				if _, cached, failed, err := s.campaignCounts(e.id); err != nil {
					why = err.Error()
				} else if cached != jobs || failed != 0 {
					why = fmt.Sprintf("cached %d failed %d, want %d and 0", cached, failed, jobs)
				}
			}
			if why != "" {
				why = fmt.Sprintf("warm campaign round %d #%d: %s", r, i, why)
			}
			res.op(why)
			if why != "" {
				continue
			}
			sample.warmMs = append(sample.warmMs, e.wallMs())
			out.ackWarm = append(out.ackWarm, ms(e.sent, e.acked))
			out.stream = append(out.stream, ms(e.first, e.last))
			out.streamBytes += float64(len(e.body))
		}
		out.warmAll = append(out.warmAll, sample.warmMs...)

		out.refs = append(out.refs, refPass())
		sample.hWarm = hostFactor(out.refs[len(out.refs)-2], out.refs[len(out.refs)-1])
		out.samples = append(out.samples, sample)
	}

	// The daemon must have refused and lost nothing. (Its dedup counters are
	// not checked here: two workers publish their /metrics snapshots out of
	// order, so the published hit count can trail the true one by a few
	// jobs. The per-campaign counts checked above are exact.)
	why := ""
	if m, err := s.scrape(); err != nil {
		why = "scrape: " + err.Error()
	} else {
		out.storeErrors, out.rejected = m["frfc_service_store_errors_total"], m["frfc_service_rejected_total"]
		if out.storeErrors != 0 || out.rejected != 0 {
			why = fmt.Sprintf("store errors %v, rejected %v", out.storeErrors, out.rejected)
		}
	}
	res.op(why)
	return out
}

// libraryMix runs the jobs of the first rounds' campaigns through frfc.Run in
// this process: the allocation counts of the job mix, which cannot be read
// out of the daemon, and a check that the daemon's results are the library's.
func libraryMix(seed0 uint64, served [][]simStats, res *runResult) (allocsPerKcycle, kbPerKcycle float64) {
	var m0, m1 runtime.MemStats
	got := make([][]simStats, len(served))
	runtime.ReadMemStats(&m0)
	for r := range served {
		for _, name := range campaignConfigs {
			spec := frfc.VC8(frfc.FastControl, 5)
			if name == "FR6" {
				spec = frfc.FR6(frfc.FastControl, 5)
			}
			spec = spec.WithSampling(smallSample, smallWarmup).WithSeed(seed0 + uint64(r))
			for _, l := range campaignLoads() {
				got[r] = append(got[r], statsOf(frfc.Run(spec, l)))
			}
		}
	}
	runtime.ReadMemStats(&m1)
	cycles := 0.0
	why := ""
	for r := range got {
		if len(served[r]) != len(got[r]) {
			why = fmt.Sprintf("round %d: daemon served %d results, library ran %d", r, len(served[r]), len(got[r]))
			break
		}
		for i, g := range got[r] {
			cycles += float64(g.Cycles)
			if d := g.diff(served[r][i]); d != "" && why == "" {
				why = fmt.Sprintf("round %d job %d: library and daemon disagree: %s", r, i, d)
			}
		}
	}
	res.op(why)
	return float64(m1.Mallocs-m0.Mallocs) / cycles * 1000, float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / cycles * 1000
}

// childCampaign is the measuring child of the campaign workload: it owns one
// frserve process on a fresh database directory and is its only client.
func childCampaign(cfg childConfig) *runResult {
	res := newResult(cfg)
	dbDir, err := os.MkdirTemp(outDir, "frdb-")
	if err != nil {
		res.op("temp dir: " + err.Error())
		return res
	}
	defer os.RemoveAll(dbDir)

	s, ready, err := startServer(filepath.Join(dbDir, "db"))
	if err != nil {
		res.op(err.Error())
		return res
	}
	res.SetupS = ready.Seconds() / (refPass() / refNominal)
	if cfg.setupOnly {
		s.stop() //nolint:errcheck // set-up was measured; the exit status adds nothing
		return res
	}

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	rs := runRounds(cfg, s, res, tr)
	state, stopErr := s.stop()
	if stopErr != nil {
		res.op(fmt.Sprintf("frserve exit: %v\n%s", stopErr, s.stderr))
	}
	if len(rs.samples) == 0 {
		return res
	}

	if cfg.trace {
		traceCampaign(cfg, res, rs, tr, state, filepath.Join(dbDir, "db"))
		return res
	}

	var perRef, warmMs []float64
	for _, r := range rs.samples {
		perRef = append(perRef, r.coldCycle/(r.coldMs/1000/r.hCold))
		warmMs = append(warmMs, median(r.warmMs)/r.hWarm)
	}
	res.Metrics["cycles_per_ref_s"] = median(perRef)
	// A warm resubmission slows steadily as the daemon's history grows, so
	// the rounds are averaged: the median of a trend is its two middle
	// rounds, and no steadier than they are.
	res.Metrics["warm_p50_ms"] = sum(warmMs) / float64(len(warmMs))
	res.Metrics["allocs_per_kcycle"], res.Metrics["alloc_kb_per_kcycle"] = libraryMix(rs.seed0, rs.mix, res)
	if ru, ok := state.SysUsage().(*syscall.Rusage); ok {
		res.Metrics["peak_rss_mb"] = float64(ru.Maxrss) / 1024
	}
	res.Samples["cycles_per_ref_s"] = perRef
	res.Samples["warm_p50_ms"] = warmMs
	res.Samples["cold_ms"] = rs.coldAll
	res.Samples["ref_pass_s"] = rs.refs
	return res
}

// traceCampaign turns the client-side spans of a traced round loop into the
// service layer's metrics, times a restart on the database the rounds filled,
// and runs the micro ladder.
func traceCampaign(cfg childConfig, res *runResult, rs rounds, tr *tracer, state *os.ProcessState, dbPath string) {
	m := res.Metrics
	jobs := float64(len(campaignConfigs) * len(campaignLoads()))
	m["service.submit_ack_ms.cold"] = median(rs.ackCold)
	m["service.submit_ack_ms.warm"] = median(rs.ackWarm)
	m["service.wait_ms.cold"] = median(rs.waitCold)
	m["service.stream_ms"] = median(rs.stream)
	m["service.stream_mb_per_s"] = ratio(rs.streamBytes/(1<<20), sum(rs.stream)/1000)
	m["service.cold_p50_ms"] = median(rs.coldAll)
	m["service.cold_p75_ms"] = quantile(rs.coldAll, 0.75)
	m["service.cold_samples"] = float64(len(rs.coldAll))
	m["service.warm_p95_ms"] = quantile(rs.warmAll, 0.95)
	m["service.warm_p99_ms"] = quantile(rs.warmAll, 0.99)
	m["service.warm_samples"] = float64(len(rs.warmAll))
	m["service.cold_jobs_per_s"] = ratio(jobs*float64(len(rs.coldAll)), sum(rs.coldAll)/1000)
	// Every exchange counted here passed the check that all of its jobs were
	// hits (warm) or misses (cold).
	m["service.dedup_hits"] = jobs * float64(len(rs.warmAll))
	m["service.dedup_misses"] = jobs * float64(len(rs.coldAll))
	m["service.store_errors"] = rs.storeErrors
	m["service.rejected"] = rs.rejected
	m["service.cpu_s_total"] = (state.UserTime() + state.SystemTime()).Seconds()
	m["bench.ref_pass_ms"] = median(rs.refs) * 1000
	m["bench.ref_pass_spread_pct"] = spreadPct(rs.refs)

	s, ready, err := startServer(dbPath)
	if err != nil {
		res.op("reopen: " + err.Error())
	} else {
		m["service.reopen_ms"] = ready.Seconds() * 1000
		// The restarted daemon must answer the first round's campaign from
		// the database it recovered, without simulating anything.
		e := s.submit(campaignBody(rs.seed0))
		why := e.status
		if why == "" {
			if _, cached, _, err := s.campaignCounts(e.id); err != nil || float64(cached) != jobs {
				why = fmt.Sprintf("%d of %v jobs served from the recovered database (err %v)", cached, jobs, err)
			}
		}
		if why != "" {
			why = "reopen: " + why
		}
		res.op(why)
		s.stop() //nolint:errcheck // the restart was timed; the exit status adds nothing
	}

	if err := tr.writeChrome(filepath.Join(outDir, "trace-"+cfg.workload.name+".json")); err != nil {
		res.op("write trace: " + err.Error())
	}
	layerMicro(cfg, res)
}
