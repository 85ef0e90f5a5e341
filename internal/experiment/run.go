package experiment

import (
	"context"
	"fmt"
	"math"

	"frfc/internal/metrics"
	"frfc/internal/noc"
	"frfc/internal/profile"
	"frfc/internal/sim"
	"frfc/internal/stats"
	"frfc/internal/topology"
	"frfc/internal/traffic"
)

// Result reports one simulated (configuration, load) point.
type Result struct {
	Spec string
	// Load is the offered traffic as a fraction of network capacity.
	Load float64
	// EffectiveLoad is Load debited by the configuration's bandwidth
	// penalty, the basis the paper uses when comparing throughputs.
	EffectiveLoad float64

	// AvgLatency is the mean creation-to-last-flit-ejection latency of
	// the sampled packets, in cycles, including source queueing.
	AvgLatency float64
	// AvgQueueDelay is the mean time sampled packets spent waiting in
	// their source queue before injection began; AvgLatency minus
	// AvgQueueDelay is pure network time.
	AvgQueueDelay float64
	// CI95 is the half-width of the naive 95% confidence interval on
	// AvgLatency, computed as if the sampled latencies were independent.
	// Successive latencies out of one run are strongly positively
	// correlated, so this interval is optimistic; it is kept for
	// comparison against BatchCI95.
	CI95 float64
	// BatchCI95 is the half-width of the batch-means 95% confidence
	// interval on AvgLatency over Batches non-overlapping batches — the
	// honest interval for autocorrelated sequences, and the one summaries
	// report. Zero (with Batches 0) when the sample is too small to batch.
	BatchCI95 float64
	Batches   int
	// Lag1Autocorr estimates the lag-1 autocorrelation of the sampled
	// latency sequence; CISuspect is set when it is positive and
	// statistically significant, meaning CI95 understates the real
	// uncertainty.
	Lag1Autocorr float64
	CISuspect    bool
	// MinLatency and MaxLatency bound the sampled latencies; P50, P95 and
	// P99 are exact quantiles of the sample.
	MinLatency, MaxLatency int64
	P50, P95, P99          int64

	// AcceptedLoad is the delivered throughput during the measurement
	// window as a fraction of capacity.
	AcceptedLoad float64

	// Saturated is set when the run could not deliver its sample within
	// the drain bound, or when accepted throughput fell more than 10%
	// short of offered — either way the offered load exceeds sustainable
	// throughput.
	Saturated bool
	// WarmupUnstable is set when warm-up hit MaxWarmupCycles without the
	// queue-length stabilizer settling: measurements began from a
	// non-steady state (typical beyond saturation) and steady-state
	// averages should be read with that in mind.
	WarmupUnstable bool
	// SampledDelivered / SampleSize report sample completion.
	SampledDelivered, SampleSize int
	// Cycles is the total simulated length of the run.
	Cycles int64

	// PoolFullFraction is the fraction of measured cycles the central
	// router's buffer pools were completely full (Section 4.2's
	// occupancy statistic).
	PoolFullFraction float64

	// EagerTransfers and EagerResidencies report the Figure 10 shadow
	// ledger: how many buffer-to-buffer transfers the
	// allocate-at-reservation-time policy would have forced, over how
	// many buffer residencies. Populated only for flit-reservation
	// configurations with TrackEagerTransfers set.
	EagerTransfers, EagerResidencies int64

	// DroppedFlits and LostPackets report fault-injection activity when
	// the configuration sets a DataFaultRate. Under end-to-end retry
	// LostPackets counts loss events per transmission attempt.
	DroppedFlits, LostPackets int64

	// Recovery-layer activity, populated for flit-reservation
	// configurations: end-to-end retransmissions, packets abandoned after
	// exhausting the retry budget, packets whose delivering attempt was a
	// retry, and control flits corrupted (each recovered by link-level
	// retransmission).
	RetriedPackets, AbandonedPackets   int64
	DeliveredAfterRetry, CtrlCorrupted int64
	// AvgRetryLatency is the mean creation-to-delivery latency of sampled
	// packets that needed at least one retry (0 when none did); their
	// latency includes the loss detection, notification round-trip and
	// backoff, so it is reported apart from AvgLatency.
	AvgRetryLatency float64
	// UnreachablePackets counts packets failed fast because a hard-fault
	// scenario disconnected their destination; DeliveredFraction is
	// delivered over resolved (delivered, abandoned or unreachable —
	// packets still in flight when the sampling run stops don't count
	// against it) — the graceful-degradation headline under Faults, 1.0 on
	// a healthy network.
	UnreachablePackets int64
	DeliveredFraction  float64

	// Bit-error-model activity, populated for flit-reservation and
	// virtual-channel configurations with a BER: flits delivered corrupted,
	// corrupted flits the hop CRC caught, and corrupted payload that
	// escaped detection all the way to its destination. Phantom
	// reservations and reclaimed slots (escaped-corrupt control damage and
	// its repair) exist only in flit-reservation runs.
	CorruptedFlits, CrcDetected, CorruptEscapes int64
	PhantomReservations, ReclaimedSlots         int64

	// Observed is what the run's observers saw, nil when none was armed. It
	// rides inside the Result so that stores and caches keep one value per
	// job, but it is not part of the measurement: every field above is
	// bit-identical whether or not anything observed the run.
	Observed *Observed `json:",omitempty"`
}

// Observed is the sidecar of deterministic observer summaries a Result
// carries, declared beside the probe whose members it summarizes.
type Observed = metrics.Observed

// String renders the result as one sweep row. The reported ± half-width is
// the batch-means interval when one exists (the i.i.d. CI95 stays available
// in the struct for comparison).
func (r Result) String() string {
	ci := r.CI95
	if r.Batches > 0 {
		ci = r.BatchCI95
	}
	sat := ""
	if r.Saturated {
		sat = "  SATURATED"
	}
	if r.WarmupUnstable {
		sat += "  WARMUP-UNSTABLE"
	}
	return fmt.Sprintf("%-12s load=%5.1f%%  latency=%8.2f ±%5.2f  accepted=%5.1f%%%s",
		r.Spec, r.Load*100, r.AvgLatency, ci, r.AcceptedLoad*100, sat)
}

// Run simulates one spec at one offered load (fraction of capacity) through
// the paper's protocol: warm up until source queues stabilize, tag
// SamplePackets packets, and run until all of them are delivered or the
// drain bound trips. It is RunInstrumented with nothing attached and no
// cancellation.
func Run(s Spec, load float64) Result {
	r, _ := RunInstrumented(context.Background(), s, load, nil, nil)
	return r
}

// Live is a point-in-time view of a run in flight, delivered to
// RunInstrumented's publish hook. Its JSON form is the "run" block /status
// serves.
type Live struct {
	// Cycle is the simulation time of the snapshot; Phase names the run
	// phase it was taken in: "warmup", "measure", "drain" or "done".
	Cycle sim.Cycle `json:"cycle"`
	Phase string    `json:"phase"`
	// Tagged and Delivered report sample progress; Packets and MeanLatency
	// the running latency measurement over delivered sampled packets.
	Tagged      int     `json:"tagged"`
	Delivered   int     `json:"delivered"`
	Packets     int64   `json:"packets"`
	MeanLatency float64 `json:"meanLatency"`
	// Snapshot is a copy of whatever the run's probe has collected so far,
	// stamped with Cycle (empty when the run carries no probe). It shares
	// nothing with the run, so the receiver may retain it or serve it from
	// another goroutine.
	Snapshot metrics.Snapshot `json:"-"`
}

// DefaultPublishEvery is the cycle period between published snapshots.
const DefaultPublishEvery = 4096

// RunInstrumented is the one implementation of the measurement protocol Run
// describes, with probe attached to the network for the whole run: its
// counters, occupancy gauges, flit trace and series accumulate, and it is
// stamped with the run length at the end. Observation never perturbs the
// simulation, so the Result stays bit-identical to an unobserved run's. When
// publish is set it receives a Live snapshot every DefaultPublishEvery cycles
// and once more when the run ends, from the simulation goroutine; keep it
// fast. A nil probe and a nil publish make it identical to Run. Cancellation
// is cooperative: the simulation polls ctx every 1024 cycles and returns
// ctx.Err() if it fired, and never perturbs a completed run — a nil error
// means the Result is bit-identical to what Run would have produced.
func RunInstrumented(ctx context.Context, s Spec, load float64, probe *metrics.Probe, publish func(Live)) (Result, error) {
	s = s.withDefaults()
	if load < 0 || load > 2 {
		panic(fmt.Sprintf("experiment: offered load %.3f out of range", load))
	}

	// The time series, nil when it is off; it samples the probe's registry
	// on its epoch inside step().
	series := probe.TimeSeries()
	// The self-profiling registry, nil when profiling is off. Memory
	// sampling happens on its epoch inside step(); everything else
	// accumulates inside the fabric via the probe. The declared type imports
	// package profile, which is what lets step() inline Due: the compiler
	// reads inline bodies from the packages this one imports, and profile
	// would otherwise reach it only through metrics' signatures.
	var prof *profile.Registry = probe.Profile()
	// The latency-stage ledger, nil when latency provenance is off. The
	// fabric timestamps lifecycle transitions into it; delivery and drop
	// hooks below close each packet's account. Spec.Check arms the strict
	// conservation assertion (stage sums must equal measured latency).
	wf := probe.Waterfall()
	if wf != nil {
		wf.Strict = s.Check
	}

	lat := stats.NewLatencyStats()
	retryLat := stats.NewRetryLatency()
	var bm stats.BatchMeans
	var queueDelay stats.Welford
	var tput stats.Throughput
	sampledDelivered := 0

	// resolved closes the account of a sampled packet that will never be
	// delivered: one abandoned after its retry budget, or one a hard fault cut
	// off from its destination — without it a scenario run would wait out the
	// drain bound for deliveries that cannot happen.
	resolved := func(p *noc.Packet, now sim.Cycle) {
		if p.Sampled {
			sampledDelivered++
			if wf != nil {
				wf.Drop(uint64(p.ID))
			}
		}
	}
	hooks := &noc.Hooks{
		PacketDelivered: func(p *noc.Packet, now sim.Cycle) {
			if p.Sampled {
				lat.Record(now - p.CreatedAt)
				bm.Add(float64(now - p.CreatedAt))
				retryLat.Record(now-p.CreatedAt, int(p.Attempts))
				queueDelay.Add(float64(p.InjectedAt - p.CreatedAt))
				sampledDelivered++
				if wf != nil {
					wf.Delivered(uint64(p.ID), now)
				}
			}
		},
		FlitEjected:       func(now sim.Cycle) { tput.CountEjected(1) },
		PacketAbandoned:   resolved,
		PacketUnreachable: resolved,
	}
	// Without end-to-end retry a lost packet's fate is resolved even though it
	// never arrives; without this, any fault would wedge the run waiting for
	// a sample that cannot complete. With retry, a loss event resolves
	// nothing: the source re-offers the packet, and the run waits for its
	// delivery or abandonment.
	if s.Flow != FlitReservation || s.FR.RetryLimit <= 0 {
		hooks.PacketLost = resolved
	}
	net, key := networks.acquire(s, hooks)
	mesh := topology.NewMesh(s.MeshRadix)
	if probe.Enabled() {
		if a, ok := net.(metrics.Attachable); ok {
			a.AttachProbe(probe)
		}
	}

	// Per-node generators with independent RNG streams: the generators, the
	// streams and the constant-rate sources' accumulators each in one array.
	genRoot := sim.NewRNG(s.Seed ^ 0x9E3779B97F4A7C15)
	rate := traffic.PacketRateFor(mesh, load, s.PacketLen)
	streams := make([]sim.RNG, mesh.N())
	for id := range streams {
		genRoot.SplitInto(&streams[id])
	}
	var constant []traffic.ConstantRate
	if !s.Bernoulli {
		constant = make([]traffic.ConstantRate, mesh.N())
	}
	var bernoulli traffic.Process = traffic.Bernoulli{Rate: rate} // stateless: one serves every node
	var nextID noc.PacketID
	gens := traffic.NewGenerators(mesh, s.Pattern, func(id topology.NodeID) traffic.Process {
		if constant == nil {
			return bernoulli
		}
		constant[id].Rate = rate
		return &constant[id]
	}, streams, s.PacketLen, func() noc.PacketID { nextID++; return nextID })

	// Track one specific input pool of a central router, as Section 4.2
	// does; under dimension-ordered routing on uniform traffic the West
	// input of a central node carries heavy through-traffic.
	center := topology.NodeID((mesh.Radix()/2)*mesh.Radix() + mesh.Radix()/2)
	_, poolCap := net.PoolUsage(center, topology.West)
	occ := stats.NewOccupancy(poolCap)

	now := sim.Cycle(0)
	tagged := 0
	phase := "warmup"
	// cancelled polls ctx every 1024 cycles; the check never alters
	// simulation state, so a run that finishes is bit-identical whether or
	// not a cancellable context was supplied.
	cancelled := func() bool {
		return now&1023 == 0 && ctx.Err() != nil
	}
	snapshot := func() Live {
		return Live{
			Cycle:       now,
			Phase:       phase,
			Tagged:      tagged,
			Delivered:   sampledDelivered,
			Packets:     lat.N(),
			MeanLatency: lat.Mean(),
			Snapshot:    probe.Snapshot(now),
		}
	}
	step := func(tagging, observe bool) {
		for id := range gens {
			p := gens[id].Generate(now)
			if p == nil {
				continue
			}
			if tagging && tagged < s.SamplePackets {
				p.Sampled = true
				tagged++
			}
			net.Offer(p)
		}
		net.Tick(now)
		now++
		if observe {
			used, _ := net.PoolUsage(center, topology.West)
			occ.Observe(used)
		}
		// Post-increment: the fabric's gauge sample for this epoch has
		// already landed in the registry, so the closing window covers
		// exactly one occupancy sample.
		if series.Due(now) {
			series.Observe(now, probe.Reg, lat.N(), lat.Mean())
		}
		if prof.Due(now) {
			prof.SampleMem()
		}
		if publish != nil && now%DefaultPublishEvery == 0 {
			publish(snapshot())
		}
	}

	// Phase 1: warm-up — a fixed minimum, then until source queues
	// stabilize or the cap is reached.
	stab := stats.NewStabilizer(s.WarmupCycles/4+1, 0.10)
	for now < s.WarmupCycles {
		if cancelled() {
			return Result{}, ctx.Err()
		}
		step(false, false)
		stab.Observe(net.SourceQueueLen())
	}
	for now < s.MaxWarmupCycles && !stab.Stable() {
		if cancelled() {
			return Result{}, ctx.Err()
		}
		step(false, false)
		stab.Observe(net.SourceQueueLen())
	}
	// If the loop above gave up at the cap rather than settling, the
	// measurement starts from a non-steady state — flag it instead of
	// silently proceeding.
	warmupUnstable := !stab.Stable()

	// Phase 2: tag the sample while traffic keeps flowing.
	phase = "measure"
	tput.Open(now)
	sampleStart := now
	for tagged < s.SamplePackets && rate > 0 {
		if cancelled() {
			return Result{}, ctx.Err()
		}
		step(true, true)
	}
	creationCycles := now - sampleStart
	if creationCycles < 1 {
		creationCycles = 1
	}

	// Phase 3: background traffic continues until the whole sample is
	// delivered or the drain bound trips (the saturation signal).
	deadline := now + creationCycles*sim.Cycle(s.DrainFactor) + 10*s.WarmupCycles
	phase = "drain"
	for sampledDelivered < tagged && now < deadline {
		if cancelled() {
			return Result{}, ctx.Err()
		}
		step(false, true)
	}
	tput.Close(now)
	probe.Stamp(now, lat.N(), lat.Mean())
	phase = "done"
	if publish != nil {
		publish(snapshot())
	}

	res := Result{
		Spec:             s.Name,
		Load:             load,
		EffectiveLoad:    load * (1 - s.BandwidthPenalty),
		AvgLatency:       lat.Mean(),
		AvgQueueDelay:    queueDelay.Mean(),
		CI95:             lat.CI95(),
		Lag1Autocorr:     bm.Lag1(),
		WarmupUnstable:   warmupUnstable,
		MinLatency:       int64(lat.Min()),
		MaxLatency:       int64(lat.Max()),
		P50:              int64(lat.Quantile(0.50)),
		P95:              int64(lat.Quantile(0.95)),
		P99:              int64(lat.Quantile(0.99)),
		Saturated:        sampledDelivered < tagged,
		SampledDelivered: sampledDelivered,
		SampleSize:       tagged,
		Cycles:           int64(now),
		PoolFullFraction: occ.FullFraction(),
		Observed:         probe.Observed(),
	}
	res.BatchCI95, res.Batches = bm.CI95(0)
	res.CISuspect = res.Lag1Autocorr > 0 && bm.Lag1Significant()
	res.AcceptedLoad = tput.AcceptedFlitsPerCycle() / (float64(mesh.N()) * mesh.CapacityPerNode())
	if res.AcceptedLoad < 0.90*load {
		res.Saturated = true
	}
	c := net.Counts()
	res.EagerTransfers, res.EagerResidencies = c.EagerTransfers, c.EagerResidencies
	res.DroppedFlits, res.LostPackets = c.DroppedFlits, c.LostDetected
	res.RetriedPackets, res.AbandonedPackets = c.Retried, c.Abandoned
	res.DeliveredAfterRetry, res.CtrlCorrupted = c.DeliveredAfterRetry, c.CtrlCorrupted
	res.UnreachablePackets = c.Unreachable
	res.CorruptedFlits, res.CrcDetected, res.CorruptEscapes = c.CorruptedFlits, c.CrcDetected, c.CorruptEscapes
	res.PhantomReservations, res.ReclaimedSlots = c.PhantomReservations, c.ReclaimedSlots
	if s.Flow == FlitReservation {
		res.AvgRetryLatency = retryLat.Retried().Mean()
		if resolved := c.Delivered + c.Abandoned + c.Unreachable; resolved > 0 {
			res.DeliveredFraction = float64(c.Delivered) / float64(resolved)
		}
	}
	networks.put(key, net, mesh.N())
	return res, nil
}

// Sweep runs the spec at each offered load and returns one result per point.
func Sweep(s Spec, loads []float64) []Result {
	results := make([]Result, 0, len(loads))
	for _, load := range loads {
		results = append(results, Run(s, load))
	}
	return results
}

// BaseLatency measures the zero-load (contention-free) latency of a spec: one
// Run at its BasePoint.
func BaseLatency(s Spec) float64 {
	return Run(BasePoint(s)).AvgLatency
}

// The saturation protocol: base latency is measured at the BasePoint; a load
// point counts as sustainable while the whole sample is delivered and its
// average latency stays at or below satLatencyMultiple × base latency; Bisect
// searches [satLo, satHi] until the bracket is narrower than the caller's
// resolution (non-positive = defaultResolution, 1% of capacity).
const (
	satLatencyMultiple = 6
	satLo, satHi       = 0.10, 1.0
	defaultResolution  = 0.01
)

func orDefaultResolution(resolution float64) float64 {
	if resolution <= 0 {
		return defaultResolution
	}
	return resolution
}

// MaxEvals bounds the runs one Bisect at resolution makes: the base-latency
// point, the two endpoints, and the bisection chain.
func MaxEvals(resolution float64) int {
	return 3 + int(math.Ceil(math.Log2((satHi-satLo)/orDefaultResolution(resolution))))
}

// BasePoint is the point BaseLatency and Bisect measure contention-free
// latency at: s (defaults filled) at a reduced sample, offered 2% of capacity.
func BasePoint(s Spec) (Spec, float64) {
	s = s.withDefaults()
	s.SamplePackets = min(s.SamplePackets, 500)
	return s, 0.02
}

// Bisect locates, by bisection, the highest offered load the configuration
// sustains — the "saturates at X% capacity" numbers of the paper —
// executing every point through run: the harness's cached, panic-isolated
// executor, or Run itself in a test's reference. It returns the raw load
// fraction (callers comparing flow-control methods apply the spec's
// BandwidthPenalty as the paper does) and the base latency the sustainability
// threshold was calibrated against. An error from run ends the search.
func Bisect(s Spec, resolution float64, run func(Spec, float64) (Result, error)) (sat, base float64, err error) {
	s = s.withDefaults()
	resolution = orDefaultResolution(resolution)
	bs, baseLoad := BasePoint(s)
	r, err := run(bs, baseLoad)
	if err != nil {
		return 0, 0, err
	}
	if base = r.AvgLatency; base <= 0 {
		return 0, base, fmt.Errorf("%s at load %.4f: zero base latency — spec cannot deliver packets", s.Name, baseLoad)
	}
	sustainable := func(load float64) (bool, error) {
		r, err := run(s, load)
		return err == nil && !r.Saturated && r.AvgLatency <= satLatencyMultiple*base, err
	}
	lo, hi := satLo, satHi
	if ok, err := sustainable(lo); err != nil || !ok {
		return lo, base, err
	}
	if ok, err := sustainable(hi); err != nil || ok {
		return hi, base, err
	}
	for hi-lo > resolution {
		mid := (lo + hi) / 2
		ok, err := sustainable(mid)
		if err != nil {
			return lo, base, err
		}
		if ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, base, nil
}
