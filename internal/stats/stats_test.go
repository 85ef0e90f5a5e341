package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"frfc/internal/sim"
)

// TestWelfordMatchesDirectComputation: the online mean/variance must agree
// with the two-pass formulas on arbitrary inputs.
func TestWelfordMatchesDirectComputation(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) < 2 {
			return true
		}
		var w Welford
		var xs []float64
		for _, v := range raw {
			x := float64(v)
			w.Add(x)
			xs = append(xs, x)
		}
		mean := 0.0
		for _, x := range xs {
			mean += x
		}
		mean /= float64(len(xs))
		varSum := 0.0
		for _, x := range xs {
			varSum += (x - mean) * (x - mean)
		}
		variance := varSum / float64(len(xs)-1)
		return math.Abs(w.Mean()-mean) < 1e-6*(1+math.Abs(mean)) &&
			math.Abs(w.Variance()-variance) < 1e-6*(1+variance)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestWelfordEdgeCases(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Variance() != 0 || w.CI95() != 0 {
		t.Fatal("empty accumulator not zero")
	}
	w.Add(5)
	if w.Mean() != 5 || w.Variance() != 0 {
		t.Fatal("single sample mishandled")
	}
}

func TestCI95ShrinksWithSamples(t *testing.T) {
	var small, large Welford
	for i := 0; i < 10; i++ {
		small.Add(float64(i % 5))
	}
	for i := 0; i < 1000; i++ {
		large.Add(float64(i % 5))
	}
	if large.CI95() >= small.CI95() {
		t.Fatalf("CI did not shrink: %v (n=1000) vs %v (n=10)", large.CI95(), small.CI95())
	}
}

func TestLatencyStats(t *testing.T) {
	s := NewLatencyStats()
	if s.Min() != 0 || s.Max() != 0 {
		t.Fatal("empty stats min/max not zero")
	}
	for _, l := range []sim.Cycle{30, 10, 50, 20} {
		s.Record(l)
	}
	if s.N() != 4 || s.Min() != 10 || s.Max() != 50 {
		t.Fatalf("n/min/max = %d/%d/%d", s.N(), s.Min(), s.Max())
	}
	if math.Abs(s.Mean()-27.5) > 1e-9 {
		t.Fatalf("mean = %v, want 27.5", s.Mean())
	}
}

func TestThroughputWindow(t *testing.T) {
	var tp Throughput
	tp.CountEjected(5) // before the window opens: ignored
	tp.Open(100)
	for i := 0; i < 10; i++ {
		tp.CountEjected(2)
	}
	tp.Close(150)
	tp.CountEjected(5) // after close: ignored
	if tp.Ejected() != 20 {
		t.Fatalf("ejected = %d, want 20", tp.Ejected())
	}
	if got := tp.AcceptedFlitsPerCycle(); math.Abs(got-0.4) > 1e-9 {
		t.Fatalf("accepted = %v flits/cycle, want 0.4", got)
	}
}

func TestThroughputZeroWindow(t *testing.T) {
	var tp Throughput
	tp.Open(5)
	tp.Close(5)
	if tp.AcceptedFlitsPerCycle() != 0 {
		t.Fatal("zero-length window should report zero throughput")
	}
}

func TestOccupancy(t *testing.T) {
	o := NewOccupancy(4)
	if o.FullFraction() != 0 || o.MeanOccupancy() != 0 {
		t.Fatal("empty occupancy not zero")
	}
	for _, u := range []int{4, 2, 4, 0} {
		o.Observe(u)
	}
	if got := o.FullFraction(); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("full fraction = %v, want 0.5", got)
	}
	if got := o.MeanOccupancy(); math.Abs(got-2.5) > 1e-9 {
		t.Fatalf("mean occupancy = %v, want 2.5", got)
	}
}

func TestStabilizerDetectsSteadyState(t *testing.T) {
	s := NewStabilizer(10, 0.05)
	// Growing queue: never stable.
	q := 0
	for i := 0; i < 100; i++ {
		q += 3
		s.Observe(q)
	}
	if s.Stable() {
		t.Fatal("stabilizer declared a linearly growing queue stable")
	}
	// Constant queue: stable after two windows.
	s = NewStabilizer(10, 0.05)
	for i := 0; i < 25; i++ {
		s.Observe(40)
	}
	if !s.Stable() {
		t.Fatal("stabilizer did not recognize a constant queue")
	}
}

func TestStabilizerToleratesEmptyQueues(t *testing.T) {
	s := NewStabilizer(5, 0.05)
	for i := 0; i < 20; i++ {
		s.Observe(0)
	}
	if !s.Stable() {
		t.Fatal("all-empty queues should count as stable")
	}
}

func TestStabilizerRejectsBadWindow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewStabilizer(0, ...) did not panic")
		}
	}()
	NewStabilizer(0, 0.1)
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	for v := sim.Cycle(1); v <= 100; v++ {
		h.Add(v)
	}
	cases := []struct {
		q    float64
		want sim.Cycle
	}{{0.01, 1}, {0.50, 50}, {0.95, 95}, {1.0, 100}}
	for _, c := range cases {
		if got := h.Quantile(c.q); got != c.want {
			t.Errorf("Quantile(%v) = %d, want %d", c.q, got, c.want)
		}
	}
	if h.N() != 100 {
		t.Errorf("N = %d", h.N())
	}
}

func TestHistogramQuantileMatchesSortProperty(t *testing.T) {
	f := func(raw []uint8, qRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		q := (float64(qRaw%100) + 1) / 100
		var h Histogram
		var xs []int
		for _, v := range raw {
			h.Add(sim.Cycle(v))
			xs = append(xs, int(v))
		}
		sort.Ints(xs)
		need := int(q * float64(len(xs)))
		if need < 1 {
			need = 1
		}
		want := sim.Cycle(xs[need-1])
		return h.Quantile(q) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramEdgeCases(t *testing.T) {
	var h Histogram
	func() {
		defer func() {
			if recover() == nil {
				t.Error("empty quantile did not panic")
			}
		}()
		h.Quantile(0.5)
	}()
	h.Add(0)
	if h.Quantile(0.5) != 0 {
		t.Error("single zero sample quantile wrong")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("negative sample did not panic")
			}
		}()
		h.Add(-1)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("q=0 did not panic")
			}
		}()
		h.Quantile(0)
	}()
}

func TestLatencyStatsQuantiles(t *testing.T) {
	s := NewLatencyStats()
	if s.Quantile(0.5) != 0 {
		t.Error("empty latency quantile not 0")
	}
	for _, l := range []sim.Cycle{10, 20, 30, 40} {
		s.Record(l)
	}
	if got := s.Quantile(0.5); got != 20 {
		t.Errorf("P50 = %d, want 20", got)
	}
	if got := s.Quantile(1.0); got != 40 {
		t.Errorf("P100 = %d, want 40", got)
	}
}

func TestHistogramSingleSample(t *testing.T) {
	var h Histogram
	h.Add(42)
	for _, q := range []float64{0.001, 0.5, 1.0} {
		if got := h.Quantile(q); got != 42 {
			t.Errorf("Quantile(%v) = %d, want 42", q, got)
		}
	}
	if h.N() != 1 {
		t.Errorf("N = %d, want 1", h.N())
	}
}

func TestHistogramAllEqual(t *testing.T) {
	var h Histogram
	for i := 0; i < 1000; i++ {
		h.Add(7)
	}
	for _, q := range []float64{0.001, 0.25, 0.5, 0.99, 1.0} {
		if got := h.Quantile(q); got != 7 {
			t.Errorf("Quantile(%v) = %d, want 7", q, got)
		}
	}
}

func TestHistogramQuantileAboveOnePanics(t *testing.T) {
	var h Histogram
	h.Add(1)
	defer func() {
		if recover() == nil {
			t.Error("q>1 did not panic")
		}
	}()
	h.Quantile(1.5)
}

// TestLatencyStatsQuantileClamps: unlike the raw Histogram, the public
// latency accumulator clamps out-of-range q instead of panicking, so a
// caller-computed quantile that lands on 0 or drifts past 1 in floating
// point can't take down a run.
func TestLatencyStatsQuantileClamps(t *testing.T) {
	s := NewLatencyStats()
	if s.Quantile(0) != 0 || s.Quantile(-1) != 0 || s.Quantile(2) != 0 {
		t.Fatal("empty stats out-of-range quantile not 0")
	}
	for _, l := range []sim.Cycle{10, 20, 30, 40} {
		s.Record(l)
	}
	if got := s.Quantile(0); got != 10 {
		t.Errorf("Quantile(0) = %d, want min 10", got)
	}
	if got := s.Quantile(-0.5); got != 10 {
		t.Errorf("Quantile(-0.5) = %d, want min 10", got)
	}
	if got := s.Quantile(1.0000001); got != 40 {
		t.Errorf("Quantile(>1) = %d, want max 40", got)
	}
}

func TestLatencyStatsSingleAndAllEqual(t *testing.T) {
	s := NewLatencyStats()
	s.Record(33)
	if s.Quantile(0.5) != 33 || s.Min() != 33 || s.Max() != 33 {
		t.Fatal("single sample quantile/min/max wrong")
	}
	if s.CI95() != 0 {
		t.Fatalf("single sample CI95 = %v, want 0", s.CI95())
	}
	eq := NewLatencyStats()
	for i := 0; i < 500; i++ {
		eq.Record(12)
	}
	for _, q := range []float64{0, 0.5, 1} {
		if got := eq.Quantile(q); got != 12 {
			t.Errorf("all-equal Quantile(%v) = %d, want 12", q, got)
		}
	}
	if ci := eq.CI95(); ci != 0 || math.IsNaN(ci) {
		t.Errorf("all-equal CI95 = %v, want exactly 0", ci)
	}
}

// TestWelfordVarianceNeverNegative: near-constant data can push the m2
// accumulator fractionally below zero through cancellation; Variance and
// StdDev must clamp rather than emit NaN.
func TestWelfordVarianceNeverNegative(t *testing.T) {
	var w Welford
	for i := 0; i < 100000; i++ {
		w.Add(1e9 + 0.1)
	}
	if v := w.Variance(); v < 0 || math.IsNaN(v) {
		t.Fatalf("variance = %v, want >= 0", v)
	}
	if sd := w.StdDev(); math.IsNaN(sd) {
		t.Fatalf("stddev = %v, want a number", sd)
	}
	if ci := w.CI95(); math.IsNaN(ci) || math.IsInf(ci, 0) {
		t.Fatalf("CI95 = %v, want finite", ci)
	}
	w.m2 = -1e-9 // force the pathological case directly
	if v := w.Variance(); v != 0 {
		t.Fatalf("clamped variance = %v, want 0", v)
	}
}

func TestOccupancyZeroCapacity(t *testing.T) {
	o := NewOccupancy(0)
	for i := 0; i < 10; i++ {
		o.Observe(0)
	}
	if got := o.FullFraction(); got != 0 {
		t.Fatalf("zero-capacity pool full fraction = %v, want 0", got)
	}
	if got := o.MeanOccupancy(); got != 0 {
		t.Fatalf("zero-capacity pool mean occupancy = %v, want 0", got)
	}
}

func TestRetryLatencySeparatesPaths(t *testing.T) {
	r := NewRetryLatency()
	r.Record(10, 0)
	r.Record(20, 0)
	r.Record(200, 1)
	r.Record(400, 3)
	if n := r.FirstTry().N(); n != 2 {
		t.Fatalf("first-try N = %d, want 2", n)
	}
	if n := r.Retried().N(); n != 2 {
		t.Fatalf("retried N = %d, want 2", n)
	}
	if m := r.FirstTry().Mean(); m != 15 {
		t.Errorf("first-try mean = %v, want 15", m)
	}
	if m := r.Retried().Mean(); m != 300 {
		t.Errorf("retried mean = %v, want 300", m)
	}
}

// TestCI95UsesStudentT: for small n the half-width must carry the Student-t
// critical value, not the normal 1.96 — at n=2 the difference is ~6.5×.
func TestCI95UsesStudentT(t *testing.T) {
	var w Welford
	w.Add(0)
	w.Add(10)
	// n=2: s = 7.0710678, t(1) = 12.706 → half-width = 12.706·s/√2 = 63.53.
	want := 12.706 * w.StdDev() / math.Sqrt(2)
	if got := w.CI95(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("CI95 at n=2 = %v, want %v (Student-t)", got, want)
	}
	if normal := 1.96 * w.StdDev() / math.Sqrt(2); w.CI95() < 6*normal {
		t.Fatalf("CI95 at n=2 = %v barely above normal approximation %v", w.CI95(), normal)
	}
	// Large n: t converges to 1.96.
	var big Welford
	for i := 0; i < 1000; i++ {
		big.Add(float64(i % 7))
	}
	want = 1.96 * big.StdDev() / math.Sqrt(1000)
	if got := big.CI95(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("CI95 at n=1000 = %v, want normal-regime %v", got, want)
	}
}

func TestTCrit95Table(t *testing.T) {
	cases := []struct {
		df   int
		want float64
	}{{0, 0}, {-3, 0}, {1, 12.706}, {2, 4.303}, {10, 2.228}, {30, 2.042}, {31, 1.96}, {100000, 1.96}}
	for _, c := range cases {
		if got := TCrit95(c.df); got != c.want {
			t.Errorf("TCrit95(%d) = %v, want %v", c.df, got, c.want)
		}
	}
	// The table must decrease monotonically toward the normal value.
	for df := 2; df <= 30; df++ {
		if TCrit95(df) >= TCrit95(df-1) {
			t.Errorf("TCrit95 not decreasing at df=%d", df)
		}
		if TCrit95(df) < 1.96 {
			t.Errorf("TCrit95(%d) = %v below the normal limit", df, TCrit95(df))
		}
	}
}

// TestBatchMeansIIDAgreement: on genuinely independent data the batch-means
// interval and the i.i.d. interval must agree to well within 2× — batching
// loses degrees of freedom but estimates the same variance.
func TestBatchMeansIIDAgreement(t *testing.T) {
	var bm BatchMeans
	var w Welford
	rng := uint64(0x9E3779B97F4A7C15)
	for i := 0; i < 3000; i++ {
		rng = rng*6364136223846793005 + 1442695040888963407
		x := float64(rng>>33) / float64(1<<31) // uniform [0,1)
		bm.Add(x)
		w.Add(x)
	}
	half, used := bm.CI95(30)
	if used != 30 {
		t.Fatalf("used %d batches, want 30", used)
	}
	iid := w.CI95()
	if half <= 0 || half > 2*iid || iid > 2*half {
		t.Fatalf("batch-means CI %v disagrees with i.i.d. CI %v on independent data", half, iid)
	}
	if bm.Lag1Significant() {
		t.Fatalf("independent data flagged as autocorrelated (lag1=%v)", bm.Lag1())
	}
}

// TestBatchMeansWidensOnCorrelatedData: on a strongly autocorrelated sequence
// the i.i.d. interval is far too narrow; batch means must report a wider,
// honest one and the lag-1 estimate must flag the sequence.
func TestBatchMeansWidensOnCorrelatedData(t *testing.T) {
	var bm BatchMeans
	var w Welford
	rng := uint64(12345)
	x := 0.0
	for i := 0; i < 3000; i++ {
		rng = rng*6364136223846793005 + 1442695040888963407
		noise := float64(rng>>33)/float64(1<<31) - 0.5
		x = 0.98*x + noise // AR(1), lag-1 autocorrelation ~0.98
		bm.Add(x)
		w.Add(x)
	}
	if r := bm.Lag1(); r < 0.9 {
		t.Fatalf("lag-1 estimate %v, want ~0.98", r)
	}
	if !bm.Lag1Significant() {
		t.Fatal("strong autocorrelation not flagged")
	}
	half, _ := bm.CI95(30)
	if iid := w.CI95(); half < 2*iid {
		t.Fatalf("batch-means CI %v not meaningfully wider than i.i.d. %v on AR(1) data", half, iid)
	}
}

func TestBatchMeansEdgeCases(t *testing.T) {
	var bm BatchMeans
	if half, used := bm.CI95(30); half != 0 || used != 0 {
		t.Fatal("empty batch means produced an interval")
	}
	if bm.Lag1() != 0 || bm.Lag1Significant() {
		t.Fatal("empty batch means produced a lag-1 estimate")
	}
	for i := 0; i < 3; i++ {
		bm.Add(1)
	}
	if half, used := bm.CI95(30); half != 0 || used != 0 {
		t.Fatal("3 observations produced an interval")
	}
	// 10 observations, 30 requested: shrink to 5 batches of 2.
	bm = BatchMeans{}
	for i := 0; i < 10; i++ {
		bm.Add(float64(i))
	}
	if _, used := bm.CI95(30); used != 5 {
		t.Fatalf("used %d batches on 10 observations, want 5", used)
	}
	// Constant data: zero-width interval, no NaN.
	bm = BatchMeans{}
	for i := 0; i < 100; i++ {
		bm.Add(7)
	}
	if half, used := bm.CI95(0); half != 0 || used != DefaultBatches {
		t.Fatalf("constant data CI = (%v, %d), want (0, %d)", half, used, DefaultBatches)
	}
	if bm.Lag1() != 0 {
		t.Fatalf("constant data lag-1 = %v, want 0", bm.Lag1())
	}
}

// TestBatchMeansDropsRemainder: 31 observations into 30 batches of 1 is
// refused (needs 2 per batch) and shrinks to 15 batches of 2, dropping the
// 31st observation.
func TestBatchMeansDropsRemainder(t *testing.T) {
	var bm BatchMeans
	for i := 0; i < 31; i++ {
		bm.Add(float64(i))
	}
	if _, used := bm.CI95(30); used != 15 {
		t.Fatalf("used %d batches on 31 observations, want 15", used)
	}
}
