package experiment

import (
	"context"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"testing"

	"frfc/internal/sim"
)

// reuseJob is one (spec, load) of the cache tests.
type reuseJob struct {
	spec Spec
	load float64
}

// reuseMix is n jobs over four configurations — two flit-reservation, a
// virtual-channel and a cut-through one — at seeds and loads of their own,
// shuffled so that no worker sees one configuration twice in a row by design.
func reuseMix(n int) []reuseJob {
	small := func(s Spec) Spec {
		s.MeshRadix = 4
		return s.Scaled(60, 120)
	}
	retry := small(FR6(FastControl, 5))
	retry.FR.DataFaultRate, retry.FR.RetryLimit = 0.02, 4
	specs := []Spec{
		small(FR6(FastControl, 5)), retry, small(VC8(FastControl, 5)),
		small(PacketSwitchSpec("VCT2", CutThrough, FastControl, 2, 5)),
	}
	jobs := make([]reuseJob, n)
	for i := range jobs {
		s := specs[i%len(specs)]
		s.Seed = uint64(100 + i)
		jobs[i] = reuseJob{s, 0.10 + 0.05*float64(i%7)}
	}
	rng := sim.NewRNG(5)
	for i := len(jobs) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		jobs[i], jobs[j] = jobs[j], jobs[i]
	}
	return jobs
}

// runPool runs the jobs over the given number of goroutines and returns the
// results in job order.
func runPool(t *testing.T, jobs []reuseJob, workers int) []Result {
	t.Helper()
	results := make([]Result, len(jobs))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				r, err := RunInstrumented(context.Background(), jobs[i].spec, jobs[i].load, Instruments{})
				if err != nil {
					t.Errorf("job %d: %v", i, err)
				}
				results[i] = r
			}
		}()
	}
	for i := range jobs {
		next <- i
	}
	close(next)
	wg.Wait()
	return results
}

// TestReuseConcurrentEqualsSerial: eight goroutines drawing a shuffled mix of
// four configurations from one process-wide cache report, job for job, what
// one goroutine reports — a network is one run's alone from take to put —
// and `go test -race` sees every path of the cache while they do.
func TestReuseConcurrentEqualsSerial(t *testing.T) {
	jobs := reuseMix(48)
	flushNetworks()
	serial := runPool(t, jobs, 1)
	flushNetworks()
	pooled := runPool(t, jobs, 8)
	for i := range jobs {
		if !reflect.DeepEqual(serial[i], pooled[i]) {
			t.Errorf("job %d (%s seed %d load %.2f): pooled run differs from serial:\n got: %+v\nwant: %+v",
				i, jobs[i].spec.Name, jobs[i].spec.Seed, jobs[i].load, pooled[i], serial[i])
		}
	}
	hits, misses, idle := cacheCounts()
	if hits+misses != len(jobs) || hits == 0 {
		t.Fatalf("%d hits and %d misses over %d jobs", hits, misses, len(jobs))
	}
	if bound := idleNetworksPerProc * runtime.GOMAXPROCS(0); idle > bound {
		t.Fatalf("%d idle networks held, the bound is %d", idle, bound)
	}
}

// TestInterleavedConfigsBothHit: two configurations alternating over two
// workers each find their network again — at worst every worker builds one of
// each, and every other job is a hit.
func TestInterleavedConfigsBothHit(t *testing.T) {
	fr, vc := FR6(FastControl, 5).Scaled(40, 100), VC8(FastControl, 5).Scaled(40, 100)
	fr.MeshRadix, vc.MeshRadix = 4, 4
	var jobs []reuseJob
	for i := 0; i < 12; i++ {
		fr.Seed, vc.Seed = uint64(i+1), uint64(i+1)
		jobs = append(jobs, reuseJob{fr, 0.2}, reuseJob{vc, 0.2})
	}
	flushNetworks()
	runPool(t, jobs, 2)
	hits, misses, idle := cacheCounts()
	if misses < 2 || misses > 4 || hits != len(jobs)-misses {
		t.Fatalf("%d hits, %d misses over %d jobs of two configurations on two workers; want 2 to 4 misses and hits for the rest", hits, misses, len(jobs))
	}
	if idle != misses {
		t.Fatalf("%d networks built, %d idle at the end", misses, idle)
	}
}

// TestResolvedRowsReuseNetworks: a resolved sweep's row takes its network from
// the cache like any run, and a reset network reports exactly what a new one
// did — here for the reliability rows (router kill included) and a chaos
// campaign at full intensity, each sweep run twice in a row.
func TestResolvedRowsReuseNetworks(t *testing.T) {
	o := ResolveOptions{Packets: 200, Check: true}
	for name, sweep := range map[string]func() (any, int){
		"reliability": func() (any, int) {
			p := runSerial(t, ReliabilitySweepOptions{ResolveOptions: o}.Cells())
			return p, len(p)
		},
		"chaos": func() (any, int) {
			p := runSerial(t, ChaosSweepOptions{ResolveOptions: o, Intensities: []float64{1.0}}.Cells())
			return p, len(p)
		},
	} {
		flushNetworks()
		first, rows := sweep()
		second, _ := sweep()
		if hits, misses, _ := cacheCounts(); hits != rows || misses != rows {
			t.Errorf("%s: %d hits and %d misses over two passes of %d rows, want a miss per row and then a hit", name, hits, misses, rows)
		}
		if !reflect.DeepEqual(first, second) {
			t.Errorf("%s: rows on reset networks differ:\n got: %+v\nwant: %+v", name, second, first)
		}
	}
}

// TestFailedRunLeavesNoNetwork: a run that panics or is cancelled does not
// return its network — whatever state it died in is nobody's to find — so the
// next run of the configuration builds its own, and completes.
func TestFailedRunLeavesNoNetwork(t *testing.T) {
	s := tiny(FR6(FastControl, 5))
	flushNetworks()
	want := Run(s, 0.3)

	flushNetworks()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the run did not panic")
			}
		}()
		// Warm up for two publish periods, so the observer fails mid-run.
		RunInstrumented(context.Background(), s.Scaled(400, 2*DefaultPublishEvery), 0.3, Instruments{ //nolint:errcheck // panics
			Publish: func(Live) { panic("observer failed mid-run") },
		})
	}()
	if _, _, idle := cacheCounts(); idle != 0 {
		t.Fatalf("a panicking run left %d networks behind", idle)
	}

	// Long enough to reach a cycle at which the run polls its context.
	ctx, cancel := context.WithCancel(context.Background())
	_, err := RunInstrumented(ctx, s.Scaled(4000, 2*DefaultPublishEvery), 0.3, Instruments{
		Publish: func(Live) { cancel() },
	})
	if err == nil {
		t.Fatal("the cancelled run returned no error")
	}
	if hits, misses, idle := cacheCounts(); hits != 0 || misses != 2 || idle != 0 {
		t.Fatalf("after a panic and a cancellation: %d hits, %d misses, %d idle; want 0, 2, 0", hits, misses, idle)
	}
	if got := Run(s, 0.3); !reflect.DeepEqual(got, want) {
		t.Fatalf("the run after the failures differs:\n got: %+v\nwant: %+v", got, want)
	}
}

// TestLargeMeshIsNotKept: a network of more than maxIdleNodes nodes is built
// for its run and dropped after it, and an idle network holds nothing of the
// run that used it.
func TestLargeMeshIsNotKept(t *testing.T) {
	flushNetworks()
	s := VC8(FastControl, 5).Scaled(20, 50)
	s.MeshRadix = 9
	Run(s, 0.1)
	Run(s, 0.1)
	if hits, misses, idle := cacheCounts(); hits != 0 || misses != 2 || idle != 0 {
		t.Fatalf("two runs on a 9x9 mesh: %d hits, %d misses, %d idle; want 0, 2, 0", hits, misses, idle)
	}
	s.MeshRadix = 8
	Run(s, 0.3)
	net := networks.take(networkKey(s.withDefaults()))
	if net == nil {
		t.Fatal("the 8x8 network was not kept")
	}
	if net.InFlightPackets() != 0 || net.SourceQueueLen() != 0 {
		t.Fatalf("the idle network holds %d packets in flight, %d queued", net.InFlightPackets(), net.SourceQueueLen())
	}
}

// TestCacheStaysBounded: two thousand jobs over forty configurations end with
// no more idle networks than the bound, the most recently used ones.
func TestCacheStaysBounded(t *testing.T) {
	flushNetworks()
	bound := idleNetworksPerProc * runtime.GOMAXPROCS(0)
	var last string
	for i := 0; i < 2000; i++ {
		s := VC8(FastControl, 2).Scaled(4, 10)
		s.MeshRadix = 2
		s.VC.BufPerVC = 2 + (i*7)%40
		s.Seed = uint64(i + 1)
		Run(s, 0.2)
		last = networkKey(s.withDefaults())
		if _, _, idle := cacheCounts(); idle > bound {
			t.Fatalf("job %d: %d idle networks, the bound is %d", i, idle, bound)
		}
	}
	hits, misses, idle := cacheCounts()
	if idle != min(bound, 40) || hits+misses != 2000 {
		t.Fatalf("%d idle networks (bound %d) after %d hits and %d misses", idle, bound, hits, misses)
	}
	if networks.take(last) == nil {
		t.Fatal("the most recently returned network was evicted")
	}
}

// warmJobs is the fixed sequence of the allocation budget: the campaign's job
// size, both lineages, three loads, three seeds.
func warmJobs() []reuseJob {
	var jobs []reuseJob
	for _, s := range []Spec{FR6(FastControl, 5), VC8(FastControl, 5)} {
		s = s.Scaled(40, 100)
		for seed := uint64(1); seed <= 3; seed++ {
			s.Seed = seed
			for _, load := range []float64{0.1, 0.3, 0.5} {
				jobs = append(jobs, reuseJob{s, load})
			}
		}
	}
	return jobs
}

// TestWarmJobAllocationBudget: once a configuration's network exists, a
// campaign-sized job allocates its own bookkeeping — hooks, statistics, the
// generators and the packets each by the array — and whatever queue or free
// list reaches a new high-water mark, and no network. The budget is a quarter
// above the largest such job measured when it was set: 421 objects, the second
// VC8 job, whose load is the first to fill what the job before it left at its
// built size. A flit-reservation network has no such job — everything it will
// use it is built with — and every warm FR6 job is 37 to 41 objects (the one
// that builds the network is under 100). And the count of the whole sequence, run
// from an empty cache, repeats: nothing in the path is dropped or kept on the
// garbage collector's schedule. It repeats to within an object or two a job,
// not to the object — the VC sinks' reassembly maps, cleared and so reseeded
// by Reset, grow at hash-dependent moments — where one network rebuilt would
// be thousands.
func TestWarmJobAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates; run without -race")
	}
	const budget = 526
	// One processor and no collections, as testing.AllocsPerRun arranges:
	// what is counted is the program's own.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	jobs := warmJobs()
	// What the process sets up lazily on its first run of each lineage (type
	// descriptions behind the cache key's rendering, for one) is not a job's.
	Run(jobs[0].spec, jobs[0].load)
	Run(jobs[len(jobs)-1].spec, jobs[len(jobs)-1].load)
	mallocs := func() uint64 {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.Mallocs
	}
	var totals []uint64
	for rep := 0; rep < 3; rep++ {
		flushNetworks()
		seen := map[Flow]bool{}
		start := mallocs()
		for i, j := range jobs {
			before := mallocs()
			Run(j.spec, j.load)
			n := mallocs() - before
			if !seen[j.spec.Flow] {
				seen[j.spec.Flow] = true // the job that builds the network
				continue
			}
			if n > budget {
				t.Errorf("repetition %d job %d (%s seed %d load %.1f): %d mallocs, the budget is %d",
					rep, i, j.spec.Name, j.spec.Seed, j.load, n, budget)
			}
		}
		totals = append(totals, mallocs()-start)
	}
	t.Logf("mallocs of the %d-job sequence, three times from an empty cache: %v", len(jobs), totals)
	if spread := slices.Max(totals) - slices.Min(totals); spread > uint64(2*len(jobs)) {
		t.Fatalf("the sequence's allocation count does not repeat: %v", totals)
	}
}
