//go:build layers

// The layer pass: every file that imports frfc/internal/... carries the
// "layers" build tag. If a refactor renames one of the identifiers bound
// here, the tagged build fails, run.sh falls back to the untagged one, the
// end-to-end metrics still print and the per-layer metrics read "missing".
// README.md lists the identifiers bound.

package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"frfc/internal/experiment"
	"frfc/internal/harness"
	"frfc/internal/metrics"
	"frfc/internal/noc"
	"frfc/internal/profile"
	"frfc/internal/service"
	"frfc/internal/sim"
	"frfc/internal/stats"
	"frfc/internal/topology"
	"frfc/internal/traffic"
)

const layersBuilt = true

// The driver loop of the layer pass runs a fixed number of cycles, so that
// its counts repeat exactly from run to run.
const (
	loopWarmCycles     = 2000
	loopMeasuredCycles = 10000
	quickLoopCycles    = 600
	spanWindow         = 256
)

// internalSpec is the workload's configuration as the internal packages
// spell it: the same preset, mesh and seed the root package builds.
func internalSpec(w workload, seed uint64) experiment.Spec {
	s := experiment.VC8(experiment.FastControl, 5)
	if w.fr {
		s = experiment.FR6(experiment.FastControl, 5)
	}
	s.MeshRadix = w.radix
	s.Seed = seed
	return s.Normalized()
}

// fabricCounts are the exported counters of the probe registries, summed over
// all nodes from outside.
type fabricCounts struct {
	ticks, active                              int64
	sched, arb, sw, credit                     int64
	resHits, resMisses, late, conflict, stalls int64
	flitHops                                   int64
}

func readCounts(p *metrics.Probe) fabricCounts {
	var c fabricCounts
	c.ticks, c.active = p.Prof.Totals()
	ph := p.Prof.PhaseTotals()
	c.sched, c.arb, c.sw, c.credit = ph[profile.PhaseSched], ph[profile.PhaseArb], ph[profile.PhaseSwitch], ph[profile.PhaseCredit]
	for i := range p.Reg.Nodes {
		n := &p.Reg.Nodes[i]
		c.resHits += n.ResHits
		c.resMisses += n.ResMisses
		c.late += n.LateReservations
		c.conflict += n.ArbConflicts
		c.stalls += n.CreditStalls
		for port := range n.Links {
			c.flitHops += n.Links[port].Flits
		}
	}
	return c
}

func (c fabricCounts) minus(o fabricCounts) fabricCounts {
	return fabricCounts{
		c.ticks - o.ticks, c.active - o.active,
		c.sched - o.sched, c.arb - o.arb, c.sw - o.sw, c.credit - o.credit,
		c.resHits - o.resHits, c.resMisses - o.resMisses, c.late - o.late, c.conflict - o.conflict, c.stalls - o.stalls,
		c.flitHops - o.flitHops,
	}
}

// loopTotals is what one pass of the driver loop measured over its measured
// cycles (the warm cycles before them are excluded from everything).
type loopTotals struct {
	cycles, routers          int
	wall                     time.Duration
	gen, offer, tick, record time.Duration // traced pass only
	offered, delivered       int64
	mallocs, bytes           uint64
	counts                   fabricCounts // probe pass only
}

// driveLoop is the benchmark's own copy of the loop experiment.RunInstrumented
// runs — per-node generators, Offer, Tick, statistics in the delivered hook —
// over a fixed number of cycles. With a tracer it reads the clock around each
// call into a layer and records the spans, summed per spanWindow cycles;
// generating for every node before offering changes no result, because a
// generator reads only its own random stream and Offer only queues.
func driveLoop(s experiment.Spec, load float64, warm, measured int, fabric string, probe *metrics.Probe, tr *tracer) loopTotals {
	var tot loopTotals
	timed := tr != nil

	lat := stats.NewLatencyStats()
	var bm stats.BatchMeans
	var queueDelay stats.Welford
	var tput stats.Throughput
	hooks := &noc.Hooks{
		PacketDelivered: func(p *noc.Packet, now sim.Cycle) {
			if !p.Sampled {
				return
			}
			var t0 time.Time
			if timed {
				t0 = time.Now()
			}
			lat.Record(now - p.CreatedAt)
			bm.Add(float64(now - p.CreatedAt))
			queueDelay.Add(float64(p.InjectedAt - p.CreatedAt))
			if timed {
				tot.record += time.Since(t0)
			}
			tot.delivered++
		},
		FlitEjected: func(sim.Cycle) { tput.CountEjected(1) },
	}
	net, mesh := experiment.NewNetwork(s, hooks)
	if probe != nil {
		net.(metrics.Attachable).AttachProbe(probe)
	}
	tot.routers = mesh.N()

	genRoot := sim.NewRNG(s.Seed ^ 0x9E3779B97F4A7C15)
	rate := traffic.PacketRateFor(mesh, load, s.PacketLen)
	gens := make([]*traffic.Generator, mesh.N())
	var nextID noc.PacketID
	idGen := func() noc.PacketID { nextID++; return nextID }
	for id := range gens {
		gens[id] = traffic.NewGenerator(mesh, topology.NodeID(id), s.Pattern, &traffic.ConstantRate{Rate: rate}, genRoot.Split(), s.PacketLen, idGen)
	}

	now := sim.Cycle(0)
	for ; now < sim.Cycle(warm); now++ {
		for _, g := range gens {
			if p := g.Generate(now); p != nil {
				net.Offer(p)
			}
		}
		net.Tick(now)
	}

	var before fabricCounts
	if probe != nil {
		before = readCounts(probe)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	tput.Open(now)
	start := time.Now()
	end := now + sim.Cycle(measured)
	if !timed {
		for ; now < end; now++ {
			for _, g := range gens {
				if p := g.Generate(now); p != nil {
					p.Sampled = true
					tot.offered++
					net.Offer(p)
				}
			}
			net.Tick(now)
		}
	} else {
		root := tr.add("experiment.run", -1, start, 0, map[string]any{"fabric": fabric, "cycles": measured})
		pending := make([]*noc.Packet, 0, len(gens))
		var wGen, wOffer, wTick, wRecord time.Duration
		winStart := start
		flush := func(at time.Time) {
			tr.add("traffic.generate", root, winStart, wGen, nil)
			tr.add(fabric+".offer", root, winStart.Add(wGen), wOffer, nil)
			tick := tr.add(fabric+".tick", root, winStart.Add(wGen+wOffer), wTick, nil)
			tr.add("stats.record", tick, winStart.Add(wGen+wOffer), wRecord, nil)
			tot.gen += wGen
			tot.offer += wOffer
			tot.tick += wTick
			wGen, wOffer, wTick, wRecord = 0, 0, 0, 0
			winStart = at
		}
		for ; now < end; now++ {
			t0 := time.Now()
			pending = pending[:0]
			for _, g := range gens {
				if p := g.Generate(now); p != nil {
					p.Sampled = true
					pending = append(pending, p)
				}
			}
			t1 := time.Now()
			for _, p := range pending {
				net.Offer(p)
			}
			t2 := time.Now()
			recBefore := tot.record
			net.Tick(now)
			t3 := time.Now()
			tot.offered += int64(len(pending))
			wGen += t1.Sub(t0)
			wOffer += t2.Sub(t1)
			wTick += t3.Sub(t2)
			wRecord += tot.record - recBefore
			if (int(now)+1)%spanWindow == 0 {
				flush(t3)
			}
		}
		flush(time.Now())
		tr.spans[root].Dur = time.Since(start)
	}
	tot.wall = time.Since(start)
	tput.Close(now)
	runtime.ReadMemStats(&m1)
	tot.mallocs, tot.bytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	if probe != nil {
		tot.counts = readCounts(probe).minus(before)
	}
	// The statistics the hook fed must have seen the deliveries it counted.
	if lat.N() != tot.delivered {
		panic(fmt.Sprintf("layer pass: %d latencies recorded, %d packets delivered", lat.N(), tot.delivered))
	}
	return tot
}

// layerSingle runs the driver loop three times over identical inputs — plain,
// traced, probed — and derives the fabric's per-layer metrics.
func layerSingle(cfg childConfig, res *runResult) {
	w := cfg.workload
	s := internalSpec(w, cfg.seed)
	warm, measured := loopWarmCycles, loopMeasuredCycles
	if cfg.quick {
		warm, measured = quickLoopCycles, quickLoopCycles
	}
	fabric := "vcrouter"
	if w.fr {
		fabric = "core"
	}

	plain := driveLoop(s, w.load, warm, measured, fabric, nil, nil)
	tr := newTracer()
	traced := driveLoop(s, w.load, warm, measured, fabric, nil, tr)
	probe := &metrics.Probe{Reg: metrics.NewRegistry(0), Prof: profile.NewRegistry(0)}
	probed := driveLoop(s, w.load, warm, measured, fabric, probe, nil)

	// The three passes simulate the same thing or the numbers below do not
	// belong together.
	why := ""
	if plain.offered != traced.offered || plain.delivered != traced.delivered ||
		plain.offered != probed.offered || plain.delivered != probed.delivered {
		why = fmt.Sprintf("layer passes disagree: offered %d/%d/%d delivered %d/%d/%d",
			plain.offered, traced.offered, probed.offered, plain.delivered, traced.delivered, probed.delivered)
	}
	res.op(why)

	self := tr.selfTime()
	run := float64(tr.total("experiment.run"))
	tickSelf := float64(self[fabric+".tick"])
	c := probed.counts
	m := res.Metrics
	cycles := float64(measured)
	m["experiment.loop_overhead_pct"] = ratio(float64(self["experiment.run"]), run) * 100
	m["traffic.generate_ns_per_cycle"] = float64(traced.gen) / cycles
	m["traffic.packets_offered"] = float64(plain.offered)
	m["stats.record_ns_per_packet"] = ratio(float64(traced.record), float64(traced.delivered))
	m["bench.trace_overhead_pct"] = (float64(traced.wall)/float64(plain.wall) - 1) * 100

	m[fabric+".offer_ns_per_packet"] = ratio(float64(traced.offer), float64(traced.offered))
	m[fabric+".tick_us_per_cycle"] = tickSelf / cycles / 1000
	m[fabric+".tick_ns_per_router"] = tickSelf / cycles / float64(traced.routers)
	m[fabric+".tick_share_pct"] = ratio(tickSelf, run) * 100
	m[fabric+".flit_hops"] = float64(c.flitHops)
	m[fabric+".tick_ns_per_flit_hop"] = ratio(tickSelf, float64(c.flitHops))
	m[fabric+".component_ticks"] = float64(c.ticks)
	m[fabric+".active_ticks"] = float64(c.active)
	m[fabric+".idle_tick_fraction"] = 1 - ratio(float64(c.active), float64(c.ticks))
	m[fabric+".arb_conflicts"] = float64(c.conflict)
	m[fabric+".credit_stalls"] = float64(c.stalls)
	m[fabric+".allocs_per_packet"] = ratio(float64(plain.mallocs), float64(plain.delivered))
	if w.fr {
		m["core.alloc_bytes_per_packet"] = ratio(float64(plain.bytes), float64(plain.delivered))
		m["core.phase_sched_work"] = float64(c.sched)
		m["core.phase_arb_work"] = float64(c.arb)
		m["core.phase_switch_work"] = float64(c.sw)
		m["core.phase_credit_work"] = float64(c.credit)
		m["core.res_hits"] = float64(c.resHits)
		m["core.res_misses"] = float64(c.resMisses)
		m["core.res_hit_ratio"] = ratio(float64(c.resHits), float64(c.resHits+c.resMisses))
		m["core.late_reservations"] = float64(c.late)
	}

	if err := tr.writeChrome(filepath.Join(outDir, "trace-"+w.name+".json")); err != nil {
		res.op("write trace: " + err.Error())
	}
}

// timeOps runs fn n times and returns the time and the mallocs of one call.
func timeOps(n int, fn func(i int)) (nsPerOp, allocsPerOp float64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	d := time.Since(start)
	runtime.ReadMemStats(&m1)
	return float64(d) / float64(n), float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

// microSink keeps results of timed calls alive.
var microSink uint64

// memStore is a result store without a disk under it, so that dispatching
// jobs that all hit it times orchestration and nothing else.
type memStore map[string]experiment.Result

func (m memStore) Get(hash string) (experiment.Result, bool) { r, ok := m[hash]; return r, ok }
func (m memStore) Put(harness.Job, string, experiment.Result) error {
	return fmt.Errorf("memStore: every job should have been a hit")
}

// layerMicro times one exported call of each layer at a fixed count. The
// numbers do not depend on the workload; every traced run reports them so
// that they sit beside the metrics they are meant to explain.
func layerMicro(cfg childConfig, res *runResult) {
	m := res.Metrics
	scale := func(n int) int {
		if cfg.quick {
			return max(n/50, 2)
		}
		return n
	}
	spec := internalSpec(workloads[0], cfg.seed)
	if !cfg.workload.campaign {
		spec = internalSpec(cfg.workload, cfg.seed)
	}

	ns, _ := timeOps(scale(50), func(int) { experiment.NewNetwork(spec, &noc.Hooks{}) })
	m["experiment.new_network_ms"] = ns / 1e6

	mesh := topology.NewMesh(8)
	var id noc.PacketID
	gen := traffic.NewGenerator(mesh, 0, traffic.Uniform{}, &traffic.ConstantRate{Rate: traffic.PacketRateFor(mesh, 0.5, 5)},
		sim.NewRNG(cfg.seed+1), 5, func() noc.PacketID { id++; return id })
	m["traffic.generate_ns"], _ = timeOps(scale(1_000_000), func(i int) {
		if p := gen.Generate(sim.Cycle(i)); p != nil {
			microSink += uint64(p.Dst)
		}
	})

	pkt := &noc.Packet{ID: 1, Dst: 9, Len: 5}
	m["noc.control_flits_ns_per_packet"], m["noc.control_flits_allocs_per_packet"] = timeOps(scale(300_000), func(int) {
		microSink += uint64(len(noc.ControlFlits(pkt, 1)))
	})
	m["noc.data_flits_ns_per_packet"], m["noc.data_flits_allocs_per_packet"] = timeOps(scale(300_000), func(int) {
		microSink += uint64(len(noc.DataFlits(pkt)))
	})

	pipe := sim.NewPipe[int](1, 1)
	m["sim.pipe_send_recv_ns"], m["sim.pipe_allocs_per_op"] = timeOps(scale(2_000_000), func(i int) {
		pipe.Send(sim.Cycle(i), i)
		if v, ok := pipe.Recv(sim.Cycle(i)); ok {
			microSink += uint64(v)
		}
	})
	rng := sim.NewRNG(cfg.seed + 2)
	m["sim.rng_uint64_ns"], _ = timeOps(scale(10_000_000), func(int) { microSink += rng.Uint64() })

	lat := stats.NewLatencyStats()
	for i := 0; i < 60_000; i++ {
		lat.Record(sim.Cycle(10 + rng.Intn(190)))
	}
	ns, _ = timeOps(scale(2000), func(int) { microSink += uint64(lat.Quantile(0.99)) })
	m["stats.quantile_us"] = ns / 1000

	tmp, err := os.MkdirTemp(outDir, "micro-")
	if err != nil {
		res.op("temp dir: " + err.Error())
		return
	}
	defer os.RemoveAll(tmp)

	// A thousand distinct jobs: one preset at a thousand loads.
	const nJobs = 1000
	base := experiment.FR6(experiment.FastControl, 5).Scaled(smallSample, smallWarmup)
	jobs := make([]harness.Job, nJobs)
	hashes := make([]string, nJobs)
	ns, _ = timeOps(nJobs, func(i int) {
		jobs[i] = harness.Job{Spec: base, Load: 0.0005 * float64(i+1)}
		hashes[i] = jobs[i].Hash()
	})
	m["harness.job_hash_us"] = ns / 1000
	result := experiment.Run(base, 0.3)
	ns, _ = timeOps(scale(5000), func(i int) {
		line, err := harness.MarshalEntry(jobs[i%nJobs], hashes[i%nJobs], result)
		if err != nil {
			panic(err)
		}
		microSink += uint64(len(line))
	})
	m["harness.marshal_entry_us"] = ns / 1000

	store, err := harness.OpenStore(filepath.Join(tmp, "store.jsonl"))
	if err != nil {
		res.op(err.Error())
		return
	}
	ns, _ = timeOps(scale(200), func(i int) {
		if err := store.Put(jobs[i], hashes[i], result); err != nil {
			panic(err)
		}
	})
	m["harness.store_put_us"] = ns / 1000
	m["harness.store_get_ns"], _ = timeOps(scale(2_000_000), func(i int) {
		if _, ok := store.Get(hashes[i%scale(200)]); !ok {
			panic("harness.Store lost an entry")
		}
	})
	store.Close() //nolint:errcheck // a scratch file about to be removed

	filled := memStore{}
	for _, h := range hashes {
		filled[h] = result
	}
	start := time.Now()
	out, err := harness.RunJobs(context.Background(), jobs, harness.Options{Workers: runtime.NumCPU(), Store: filled})
	m["harness.dispatch_us_per_job"] = float64(time.Since(start)) / 1000 / nJobs
	hits := 0
	for _, jr := range out {
		if jr.Cached {
			hits++
		}
	}
	why := ""
	if err != nil || hits != nJobs {
		why = fmt.Sprintf("dispatch over a filled store: %d of %d cached, err %v", hits, nJobs, err)
	}
	res.op(why)

	for _, mode := range []service.FsyncMode{service.FsyncAlways, service.FsyncBatch, service.FsyncOff} {
		db, err := service.OpenDB(filepath.Join(tmp, "db-"+mode.String()), service.DBOptions{Fsync: service.FsyncPolicy{Mode: mode}})
		if err != nil {
			res.op(err.Error())
			return
		}
		n := scale(500)
		if mode == service.FsyncAlways {
			n = scale(100)
		}
		ns, _ = timeOps(n, func(i int) {
			if err := db.Put(jobs[i], hashes[i], result); err != nil {
				panic(err)
			}
		})
		m["service.db_put_us."+mode.String()] = ns / 1000
		if mode == service.FsyncOff {
			m["service.db_getline_ns"], _ = timeOps(scale(2_000_000), func(i int) {
				line, ok := db.GetLine(hashes[i%n])
				if !ok {
					panic("service.DB lost an entry")
				}
				microSink += uint64(len(line))
			})
		}
		if err := db.Close(); err != nil {
			res.op("close db: " + err.Error())
		}
	}
}
