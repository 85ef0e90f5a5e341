package frfc

import (
	"frfc/internal/experiment"
)

// Result reports one simulated (configuration, load) point. Latencies are in
// cycles; loads are fractions of network capacity (for a k×k mesh under
// uniform traffic, capacity is 4/k flits per node per cycle).
type Result struct {
	Spec string
	// Load is the offered traffic.
	Load float64
	// EffectiveLoad is Load debited by the configuration's control
	// bandwidth overhead (Table 2), the paper's comparison basis.
	EffectiveLoad float64
	// AvgLatency is mean packet latency — creation to last-flit ejection,
	// including source queueing. AvgQueueDelay is the source-queueing
	// component alone.
	AvgLatency    float64
	AvgQueueDelay float64
	// CI95 is the half-width of the naive 95% confidence interval on
	// AvgLatency, computed as if sampled latencies were independent. They
	// are not — successive latencies are positively correlated — so prefer
	// BatchCI95, the non-overlapping batch-means interval over Batches
	// batches (zero when the sample was too small to batch). Lag1Autocorr
	// estimates the sequence's lag-1 autocorrelation; CISuspect is set when
	// it is positive and significant, i.e. when CI95 understates the real
	// uncertainty.
	CI95         float64
	BatchCI95    float64
	Batches      int
	Lag1Autocorr float64
	CISuspect    bool
	MinLatency   int64
	MaxLatency   int64
	// P50, P95 and P99 are exact latency quantiles of the sample.
	P50, P95, P99 int64
	// AcceptedLoad is delivered throughput as a fraction of capacity.
	AcceptedLoad float64
	// Saturated marks offered loads the configuration could not sustain.
	Saturated bool
	// WarmupUnstable is set when warm-up hit its cycle cap without source
	// queues stabilizing: measurement began from a non-steady state
	// (typical beyond saturation).
	WarmupUnstable bool
	// SampledDelivered of SampleSize tagged packets completed.
	SampledDelivered int
	SampleSize       int
	// Cycles is the simulated run length.
	Cycles int64
	// PoolFullFraction is the fraction of measured cycles the central
	// router's buffer pools were completely full (Section 4.2).
	PoolFullFraction float64
	// EagerTransfers and EagerResidencies report the Figure 10 shadow
	// ledger (Options.TrackEagerTransfers): buffer-to-buffer transfers
	// the allocate-at-reservation-time policy would force, over the
	// number of buffer residencies replayed. Deferred allocation — the
	// executed policy — never needs a transfer.
	EagerTransfers   int64
	EagerResidencies int64
	// DroppedFlits and LostPackets report fault-injection activity
	// (Options.DataFaultRate). Under end-to-end retry LostPackets counts
	// loss events per transmission attempt.
	DroppedFlits int64
	LostPackets  int64
	// Recovery-layer activity (Options.RetryLimit, Options.CtrlFaultRate):
	// end-to-end retransmissions issued, packets abandoned after the retry
	// budget ran out, packets whose delivering attempt was a retry, and
	// control flits corrupted (each recovered in place by link-level
	// retransmission).
	RetriedPackets      int64
	AbandonedPackets    int64
	DeliveredAfterRetry int64
	CtrlCorrupted       int64
	// AvgRetryLatency is the mean latency of sampled packets that needed
	// at least one retry (0 when none did), reported apart from AvgLatency
	// because it includes loss detection, the notification round-trip and
	// backoff.
	AvgRetryLatency float64
	// UnreachablePackets counts packets failed fast at the source because a
	// hard fault (Options.Scenario) disconnected their destination, and
	// DeliveredFraction is delivered over resolved (packets still in flight
	// when the run stops don't count against it) — the graceful-degradation
	// headline under a fault scenario, 1.0 on a healthy network.
	UnreachablePackets int64
	DeliveredFraction  float64
	// Bit-error-model activity (Options.BER): flits delivered corrupted,
	// corrupted flits the modeled hop CRC caught, corrupted payload that
	// escaped every hop CRC to its destination, phantom reservations an
	// escaped-corrupt control flit installed, and orphaned parked flits the
	// reclamation timeout freed back into the loss path. The last two are
	// flit-reservation-only; the first three also populate for
	// virtual-channel runs with a BER.
	CorruptedFlits      int64
	CrcDetected         int64
	CorruptEscapes      int64
	PhantomReservations int64
	ReclaimedSlots      int64
	// Self-profiling summary, populated only when the run carried a profile
	// registry (ObserverOptions.Profile, ParallelOptions.Profile): total and
	// active component ticks, the overall idle fraction, and per-phase work
	// attribution inside the flit-reservation router. Every value is a
	// deterministic function of the simulation — host memory samples never
	// enter a Result — so profiled results stay bit-identical across worker
	// counts.
	ProfTicks, ProfActiveTicks                                 int64
	ProfIdleFraction                                           float64
	ProfSchedWork, ProfArbWork, ProfSwitchWork, ProfCreditWork int64
	// Latency-provenance summary, populated only when the run carried a
	// stage ledger (ObserverOptions.Waterfall, ParallelOptions.Waterfall):
	// WaterfallPackets sampled packets decomposed, their summed latency
	// WaterfallTotal, and the seven per-stage cycle totals. The partition
	// is exact — the stage fields sum to WaterfallTotal — and every value
	// is deterministic, so waterfall results stay bit-identical across
	// worker counts.
	WaterfallPackets, WaterfallTotal               int64
	WaterfallQueue, WaterfallReserve, WaterfallArb int64
	WaterfallStall, WaterfallSched, WaterfallLink  int64
	WaterfallDrain                                 int64
}

func fromInternal(r experiment.Result) Result {
	return Result{
		Spec:             r.Spec,
		Load:             r.Load,
		EffectiveLoad:    r.EffectiveLoad,
		AvgLatency:       r.AvgLatency,
		AvgQueueDelay:    r.AvgQueueDelay,
		CI95:             r.CI95,
		BatchCI95:        r.BatchCI95,
		Batches:          r.Batches,
		Lag1Autocorr:     r.Lag1Autocorr,
		CISuspect:        r.CISuspect,
		WarmupUnstable:   r.WarmupUnstable,
		MinLatency:       int64(r.MinLatency),
		MaxLatency:       int64(r.MaxLatency),
		P50:              int64(r.P50),
		P95:              int64(r.P95),
		P99:              int64(r.P99),
		AcceptedLoad:     r.AcceptedLoad,
		Saturated:        r.Saturated,
		SampledDelivered: r.SampledDelivered,
		SampleSize:       r.SampleSize,
		Cycles:           int64(r.Cycles),
		PoolFullFraction: r.PoolFullFraction,
		EagerTransfers:   r.EagerTransfers,
		EagerResidencies: r.EagerResidencies,
		DroppedFlits:     r.DroppedFlits,
		LostPackets:      r.LostPackets,

		RetriedPackets:      r.RetriedPackets,
		AbandonedPackets:    r.AbandonedPackets,
		DeliveredAfterRetry: r.DeliveredAfterRetry,
		CtrlCorrupted:       r.CtrlCorrupted,
		AvgRetryLatency:     r.AvgRetryLatency,

		UnreachablePackets: r.UnreachablePackets,
		DeliveredFraction:  r.DeliveredFraction,

		CorruptedFlits:      r.CorruptedFlits,
		CrcDetected:         r.CrcDetected,
		CorruptEscapes:      r.CorruptEscapes,
		PhantomReservations: r.PhantomReservations,
		ReclaimedSlots:      r.ReclaimedSlots,

		ProfTicks:        r.ProfTicks,
		ProfActiveTicks:  r.ProfActiveTicks,
		ProfIdleFraction: r.ProfIdleFraction,
		ProfSchedWork:    r.ProfSchedWork,
		ProfArbWork:      r.ProfArbWork,
		ProfSwitchWork:   r.ProfSwitchWork,
		ProfCreditWork:   r.ProfCreditWork,

		WaterfallPackets: r.WaterfallPackets,
		WaterfallTotal:   r.WaterfallTotal,
		WaterfallQueue:   r.WaterfallQueue,
		WaterfallReserve: r.WaterfallReserve,
		WaterfallArb:     r.WaterfallArb,
		WaterfallStall:   r.WaterfallStall,
		WaterfallSched:   r.WaterfallSched,
		WaterfallLink:    r.WaterfallLink,
		WaterfallDrain:   r.WaterfallDrain,
	}
}

// Run simulates the spec at one offered load using the paper's measurement
// protocol: warm up until source queues stabilize, tag a packet sample, and
// run until the whole sample is delivered or saturation is detected.
func Run(s Spec, load float64) Result {
	return fromInternal(experiment.Run(s.inner, load))
}

// Sweep runs the spec at each offered load — the raw material of the paper's
// latency-versus-offered-traffic figures.
func Sweep(s Spec, loads []float64) []Result {
	rs := experiment.Sweep(s.inner, loads)
	out := make([]Result, len(rs))
	for i, r := range rs {
		out[i] = fromInternal(r)
	}
	return out
}

// BaseLatency measures the spec's contention-free latency in cycles.
func BaseLatency(s Spec) float64 {
	return experiment.BaseLatency(s.inner)
}

// SaturationThroughput locates the highest sustainable offered load by
// bisection, as a fraction of capacity. resolution is the search step; 0
// means 1% of capacity.
func SaturationThroughput(s Spec, resolution float64) float64 {
	return experiment.SaturationThroughput(s.inner, experiment.SaturationOptions{Resolution: resolution})
}

// SummaryRow is one configuration's row of the paper's Table 3: base latency,
// latency at 50% capacity, and the saturation Throughput as a raw load
// fraction and, as EffectiveThroughput, debited by the bandwidth penalty.
type SummaryRow = experiment.SummaryRow

// Summarize measures a spec's Table 3 row: base latency, latency at 50%
// capacity, and saturation throughput (raw and bandwidth-debited).
func Summarize(s Spec) SummaryRow {
	return experiment.Summarize(s.inner, experiment.SaturationOptions{})
}
