// Package stats accumulates the measurements the paper reports: average
// packet latency with 95% confidence intervals, accepted throughput, buffer
// occupancy, and warm-up stabilization of queue lengths.
package stats

import (
	"math"

	"frfc/internal/sim"
)

// Welford accumulates a running mean and variance using Welford's online
// algorithm, which is numerically stable over the hundreds of thousands of
// samples a saturation-point run produces.
type Welford struct {
	n    int64
	mean float64
	m2   float64
}

// Add incorporates one sample.
func (w *Welford) Add(x float64) {
	w.n++
	delta := x - w.mean
	w.mean += delta / float64(w.n)
	w.m2 += delta * (x - w.mean)
}

// N reports the sample count.
func (w *Welford) N() int64 { return w.n }

// Mean reports the sample mean (0 when empty).
func (w *Welford) Mean() float64 { return w.mean }

// Variance reports the unbiased sample variance (0 with fewer than 2
// samples). Floating-point cancellation can drive the accumulator a hair
// below zero on near-constant data; that is clamped so StdDev never goes NaN.
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	v := w.m2 / float64(w.n-1)
	if v < 0 {
		return 0
	}
	return v
}

// StdDev reports the sample standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// CI95 reports the half-width of the 95% confidence interval on the mean:
// t·s/√n with the Student-t critical value for n-1 degrees of freedom. For
// the paper's sample sizes (thousands of packets) t is indistinguishable from
// the normal approximation's 1.96, but for small n the normal value badly
// understates the interval — at n=2 the true critical value is 12.7, not
// 1.96. Samples are assumed independent; for autocorrelated sequences use
// BatchMeans, which does not share that assumption.
func (w *Welford) CI95() float64 {
	if w.n < 2 {
		return 0
	}
	return TCrit95(int(w.n-1)) * w.StdDev() / math.Sqrt(float64(w.n))
}

// LatencyStats accumulates end-to-end packet latencies. Latency spans packet
// creation (entering the source queue) to ejection of the packet's last flit
// at the destination, as defined in Section 4 of the paper.
type LatencyStats struct {
	w    Welford
	hist Histogram
	min  sim.Cycle
	max  sim.Cycle
}

// NewLatencyStats returns an empty accumulator.
func NewLatencyStats() *LatencyStats {
	return &LatencyStats{min: math.MaxInt64, max: math.MinInt64}
}

// Record adds one packet latency measured in cycles.
func (s *LatencyStats) Record(latency sim.Cycle) {
	s.w.Add(float64(latency))
	s.hist.Add(latency)
	if latency < s.min {
		s.min = latency
	}
	if latency > s.max {
		s.max = latency
	}
}

// Quantile reports the q-quantile of recorded latencies (0 when empty).
// q is clamped to (0, 1]: q <= 0 reports the minimum, q > 1 the maximum.
func (s *LatencyStats) Quantile(q float64) sim.Cycle {
	if s.hist.N() == 0 {
		return 0
	}
	if q <= 0 {
		return s.Min()
	}
	if q > 1 {
		q = 1
	}
	return s.hist.Quantile(q)
}

// N reports the number of packets recorded.
func (s *LatencyStats) N() int64 { return s.w.N() }

// Mean reports the average latency in cycles.
func (s *LatencyStats) Mean() float64 { return s.w.Mean() }

// CI95 reports the half-width of the 95% confidence interval.
func (s *LatencyStats) CI95() float64 { return s.w.CI95() }

// Min reports the smallest recorded latency, or 0 if empty.
func (s *LatencyStats) Min() sim.Cycle {
	if s.w.N() == 0 {
		return 0
	}
	return s.min
}

// Max reports the largest recorded latency, or 0 if empty.
func (s *LatencyStats) Max() sim.Cycle {
	if s.w.N() == 0 {
		return 0
	}
	return s.max
}

// RetryLatency separates delivered-packet latency by delivery path:
// packets that arrived on their first transmission attempt versus packets
// that needed at least one end-to-end retry. Retried deliveries carry the
// notification round-trip and backoff in their latency, so folding them into
// one mean would hide the recovery layer's cost.
type RetryLatency struct {
	firstTry *LatencyStats
	retried  *LatencyStats
}

// NewRetryLatency returns an empty accumulator pair.
func NewRetryLatency() *RetryLatency {
	return &RetryLatency{firstTry: NewLatencyStats(), retried: NewLatencyStats()}
}

// Record adds one delivered packet's latency, classified by how many
// end-to-end retransmission attempts it took (0 = delivered first try).
func (r *RetryLatency) Record(latency sim.Cycle, attempts int) {
	if attempts > 0 {
		r.retried.Record(latency)
		return
	}
	r.firstTry.Record(latency)
}

// FirstTry reports the accumulator for packets delivered without a retry.
func (r *RetryLatency) FirstTry() *LatencyStats { return r.firstTry }

// Retried reports the accumulator for packets delivered after >= 1 retry.
func (r *RetryLatency) Retried() *LatencyStats { return r.retried }

// Throughput tracks the flit ejection count over a measurement window to
// compute accepted throughput.
type Throughput struct {
	startCycle sim.Cycle
	endCycle   sim.Cycle
	ejected    int64
	open       bool
}

// Open starts the measurement window at cycle now.
func (t *Throughput) Open(now sim.Cycle) {
	t.startCycle = now
	t.open = true
}

// Close ends the measurement window at cycle now.
func (t *Throughput) Close(now sim.Cycle) {
	t.endCycle = now
	t.open = false
}

// CountEjected adds n ejected flits if the window is open.
func (t *Throughput) CountEjected(n int) {
	if t.open {
		t.ejected += int64(n)
	}
}

// Ejected reports total ejected flits in the window.
func (t *Throughput) Ejected() int64 { return t.ejected }

// AcceptedFlitsPerCycle reports ejected flits per cycle over the window
// (total across all nodes); divide by node count for per-node throughput.
func (t *Throughput) AcceptedFlitsPerCycle() float64 {
	cycles := t.endCycle - t.startCycle
	if cycles <= 0 {
		return 0
	}
	return float64(t.ejected) / float64(cycles)
}

// Occupancy tracks what fraction of observed cycles a buffer pool spent
// completely full, the measurement behind Section 4.2's observation that
// near saturation FR6's pools are full 40% of the time versus <5% for
// virtual-channel flow control.
type Occupancy struct {
	cycles    int64
	fullCount int64
	sum       int64
	capacity  int
}

// NewOccupancy returns a tracker for a pool of the given capacity.
func NewOccupancy(capacity int) *Occupancy {
	return &Occupancy{capacity: capacity}
}

// Observe records the pool's occupancy for one cycle. A pool with no
// capacity is never counted as full — otherwise an idle zero-capacity pool
// would report FullFraction 1.0.
func (o *Occupancy) Observe(used int) {
	o.cycles++
	o.sum += int64(used)
	if o.capacity > 0 && used >= o.capacity {
		o.fullCount++
	}
}

// FullFraction reports the fraction of observed cycles the pool was full.
func (o *Occupancy) FullFraction() float64 {
	if o.cycles == 0 {
		return 0
	}
	return float64(o.fullCount) / float64(o.cycles)
}

// MeanOccupancy reports the average number of occupied buffers.
func (o *Occupancy) MeanOccupancy() float64 {
	if o.cycles == 0 {
		return 0
	}
	return float64(o.sum) / float64(o.cycles)
}

// Stabilizer implements the paper's warm-up criterion: run until average
// queue lengths have stabilized. It compares the mean queue length over
// consecutive windows and declares stability when the relative change falls
// below a tolerance.
type Stabilizer struct {
	window    sim.Cycle
	tolerance float64

	cur      float64
	curN     int64
	prevMean float64
	havePrev bool
	stable   bool
}

// NewStabilizer returns a stabilizer comparing windows of the given length
// (cycles) with the given relative tolerance (e.g. 0.05 for 5%).
func NewStabilizer(window sim.Cycle, tolerance float64) *Stabilizer {
	if window < 1 {
		panic("stats: stabilizer window must be at least 1 cycle")
	}
	return &Stabilizer{window: window, tolerance: tolerance}
}

// Observe records the aggregate queue length at one cycle.
func (s *Stabilizer) Observe(queueLen int) {
	s.cur += float64(queueLen)
	s.curN++
	if s.curN < int64(s.window) {
		return
	}
	mean := s.cur / float64(s.curN)
	s.cur, s.curN = 0, 0
	if s.havePrev {
		denom := s.prevMean
		if denom < 1 {
			denom = 1 // avoid declaring instability over empty queues
		}
		s.stable = math.Abs(mean-s.prevMean)/denom <= s.tolerance
	}
	s.prevMean = mean
	s.havePrev = true
}

// Stable reports whether the last two completed windows agreed within
// tolerance.
func (s *Stabilizer) Stable() bool { return s.stable }
