package frfc_test

import (
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"frfc"
	"frfc/internal/experiment"
)

func TestPresetNames(t *testing.T) {
	cases := []struct {
		spec frfc.Spec
		want string
	}{
		{frfc.FR6(frfc.FastControl, 5), "FR6"},
		{frfc.FR13(frfc.FastControl, 5), "FR13"},
		{frfc.VC8(frfc.FastControl, 5), "VC8"},
		{frfc.VC16(frfc.LeadingControl, 5), "VC16"},
		{frfc.VC32(frfc.FastControl, 21), "VC32"},
		{frfc.FRLead(2, 5), "FR6-lead2"},
	}
	for _, c := range cases {
		if c.spec.Name != c.want {
			t.Errorf("Name = %q, want %q", c.spec.Name, c.want)
		}
	}
}

// TestCustomRejectsUnknownPattern: a custom configuration takes its traffic
// pattern by name through ParsePattern, which refuses an unknown one by name.
func TestCustomRejectsUnknownPattern(t *testing.T) {
	p, err := frfc.ParsePattern("zigzag")
	if err == nil || !strings.Contains(err.Error(), "zigzag") {
		t.Fatalf("ParsePattern with bad pattern: err = %v", err)
	}
	if p != nil {
		t.Fatalf("ParsePattern with bad pattern returned %T, want nil", p)
	}
}

// TestCustomBuildsBothFlavors: a configuration beyond the presets is a preset
// with fields set — here each flow-control family with its buffers, horizon
// or virtual channels, wiring, traffic pattern and injection process changed.
func TestCustomBuildsBothFlavors(t *testing.T) {
	fr := frfc.FRLead(2, 5)
	fr.Name = "my-fr"
	fr.FR.DataBuffers = 8
	fr.FR.Horizon = 16
	transpose, err := frfc.ParsePattern("transpose")
	if err != nil {
		t.Fatal(err)
	}
	fr.Pattern = transpose

	vc := frfc.VC8(frfc.FastControl, 5)
	vc.Name = "my-vc"
	vc.VC.NumVCs, vc.VC.BufPerVC = 4, 2
	tornado, err := frfc.ParsePattern("tornado")
	if err != nil {
		t.Fatal(err)
	}
	vc.Pattern = tornado
	vc.Bernoulli = true

	for _, s := range []frfc.Spec{fr, vc} {
		r := frfc.Run(s.WithMeshRadix(4).WithSampling(200, 400), 0.15)
		if r.Saturated || r.SampledDelivered != 200 {
			t.Errorf("%s at 15%% load: saturated=%v delivered=%d/200", s.Name, r.Saturated, r.SampledDelivered)
		}
	}
}

func TestRunReportsConsistentResult(t *testing.T) {
	s := frfc.FR6(frfc.FastControl, 5).WithMeshRadix(4).WithSampling(300, 500)
	r := frfc.Run(s, 0.30)
	if r.Spec != "FR6" {
		t.Errorf("Spec = %q", r.Spec)
	}
	if r.Load != 0.30 {
		t.Errorf("Load = %v", r.Load)
	}
	if r.EffectiveLoad >= r.Load {
		t.Errorf("EffectiveLoad %v not debited below Load %v", r.EffectiveLoad, r.Load)
	}
	if r.MinLatency <= 0 || float64(r.MinLatency) > r.AvgLatency || r.AvgLatency > float64(r.MaxLatency) {
		t.Errorf("latency ordering broken: min %d avg %.1f max %d", r.MinLatency, r.AvgLatency, r.MaxLatency)
	}
	if r.Cycles <= 0 {
		t.Errorf("Cycles = %d", r.Cycles)
	}
}

func TestSweepAndSeedDeterminism(t *testing.T) {
	s := frfc.VC8(frfc.FastControl, 5).WithMeshRadix(4).WithSampling(200, 400).WithSeed(77)
	a := frfc.Sweep(s, []float64{0.2, 0.4})
	b := frfc.Sweep(s, []float64{0.2, 0.4})
	for i := range a {
		if a[i].AvgLatency != b[i].AvgLatency {
			t.Fatalf("same seed, different latency at point %d: %v vs %v", i, a[i].AvgLatency, b[i].AvgLatency)
		}
	}
	c := frfc.Run(s.WithSeed(78), 0.2)
	if c.AvgLatency == a[0].AvgLatency {
		t.Log("different seeds produced identical latency (possible but unlikely)")
	}
}

func TestStorageTableShape(t *testing.T) {
	rows := frfc.StorageTable()
	if len(rows) != 5 {
		t.Fatalf("StorageTable has %d rows, want 5", len(rows))
	}
	byName := map[string]frfc.StorageRow{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	if byName["VC8"].BitsPerNode != 10452 || byName["FR6"].BitsPerNode != 10762 {
		t.Errorf("Table 1 totals wrong: VC8 %d, FR6 %d", byName["VC8"].BitsPerNode, byName["FR6"].BitsPerNode)
	}
	if byName["VC8"].CtrlBuffers != 0 || byName["FR6"].CtrlBuffers == 0 {
		t.Error("control-buffer rows misplaced")
	}
}

func TestBandwidthTableShape(t *testing.T) {
	rows, penalty := frfc.BandwidthTable()
	if len(rows) != 2 {
		t.Fatalf("BandwidthTable has %d rows, want 2", len(rows))
	}
	if rows[1].BitsPerFlit-rows[0].BitsPerFlit != 5 {
		t.Errorf("FR extra bits = %v, want 5", rows[1].BitsPerFlit-rows[0].BitsPerFlit)
	}
	if penalty < 0.019 || penalty > 0.020 {
		t.Errorf("penalty = %v, want ~0.0195", penalty)
	}
}

// TestPatternNames: ParsePattern resolves every name -pattern lists, and the
// empty name, to its traffic pattern, and refuses anything else by name.
func TestPatternNames(t *testing.T) {
	for _, tc := range []struct{ name, want string }{
		{"uniform", "traffic.Uniform"},
		{"", "traffic.Uniform"},
		{"transpose", "traffic.Transpose"},
		{"bitcomp", "traffic.BitComplement"},
		{"tornado", "traffic.Tornado"},
		{"neighbor", "traffic.Neighbor"},
		{"bitrev", "traffic.BitReverse"},
		{"shuffle", "traffic.Shuffle"},
	} {
		p, err := frfc.ParsePattern(tc.name)
		if err != nil || fmt.Sprintf("%T", p) != tc.want {
			t.Errorf("ParsePattern(%q) = %T, %v; want %s", tc.name, p, err, tc.want)
		}
	}
	for _, name := range []string{"nope", "Uniform"} {
		if _, err := frfc.ParsePattern(name); err == nil || !strings.Contains(err.Error(), strconv.Quote(name)) {
			t.Errorf("ParsePattern(%q): err = %v, want one naming it", name, err)
		}
	}
}

func TestEagerTransferTracking(t *testing.T) {
	s := frfc.FR6(frfc.FastControl, 5).WithMeshRadix(4).WithSampling(400, 500)
	s.FR.TrackEagerTransfers = true
	r := frfc.Run(s, 0.6)
	if r.EagerResidencies == 0 {
		t.Fatal("eager ledger replayed nothing")
	}
	if r.EagerTransfers < 0 || r.EagerTransfers > r.EagerResidencies {
		t.Fatalf("transfers %d outside [0, %d]", r.EagerTransfers, r.EagerResidencies)
	}
	// Without tracking, the counters stay zero.
	r2 := frfc.Run(frfc.FR6(frfc.FastControl, 5).WithMeshRadix(4).WithSampling(200, 400), 0.3)
	if r2.EagerResidencies != 0 {
		t.Error("untracked run reported ledger activity")
	}
}

func TestRelatedWorkBaselinesDeliver(t *testing.T) {
	for _, s := range []frfc.Spec{
		frfc.WormholeSpec(frfc.FastControl, 8, 5),
		frfc.StoreAndForwardSpec(frfc.FastControl, 2, 5),
		frfc.CutThroughSpec(frfc.FastControl, 2, 5),
	} {
		s = s.WithMeshRadix(4).WithSampling(200, 400)
		r := frfc.Run(s, 0.15)
		if r.Saturated || r.SampledDelivered != 200 {
			t.Errorf("%s at 15%%: saturated=%v delivered=%d/200", s.Name, r.Saturated, r.SampledDelivered)
		}
	}
}

func TestCircuitSwitchingDelivers(t *testing.T) {
	s := frfc.CircuitSpec(frfc.FastControl, 5).WithMeshRadix(4).WithSampling(200, 400)
	r := frfc.Run(s, 0.10)
	if r.Saturated || r.SampledDelivered != 200 {
		t.Fatalf("circuit switching at 10%%: saturated=%v delivered=%d/200", r.Saturated, r.SampledDelivered)
	}
}

// TestCustomRecoveryOptions: the recovery layer's fields set on a preset —
// link faults, retry with its backoff and notification latency, the watchdog
// — reach the run.
func TestCustomRecoveryOptions(t *testing.T) {
	s := frfc.FR6(frfc.FastControl, 5).WithMeshRadix(4).WithSampling(300, 500)
	s.FR.DataFaultRate, s.FR.CtrlFaultRate = 0.03, 0.01
	s.FR.RetryLimit, s.FR.RetryBackoffBase, s.FR.NackLatency = 10, 32, 12
	s.FR.WatchdogCycles = 100000
	r := frfc.Run(s, 0.20)
	if r.SampledDelivered != r.SampleSize {
		t.Fatalf("recovery run resolved %d of %d sampled packets", r.SampledDelivered, r.SampleSize)
	}
	if r.DroppedFlits == 0 || r.LostPackets == 0 {
		t.Errorf("data fault injection inactive: dropped=%d lost=%d", r.DroppedFlits, r.LostPackets)
	}
	if r.RetriedPackets == 0 || r.DeliveredAfterRetry == 0 {
		t.Errorf("retry layer inactive: retried=%d deliveredAfterRetry=%d", r.RetriedPackets, r.DeliveredAfterRetry)
	}
	if r.CtrlCorrupted == 0 {
		t.Errorf("control fault injection inactive: ctrlCorrupted=%d", r.CtrlCorrupted)
	}
	if r.RetriedPackets > 0 && r.AvgRetryLatency <= r.AvgLatency {
		t.Errorf("retried packets should be slower: retry latency %.1f vs avg %.1f", r.AvgRetryLatency, r.AvgLatency)
	}
}

// TestCustomRejectsBadFaultRates: a fault rate outside its range set on a
// preset's fields panics when the run builds the network, by the documented
// convention for invalid configurations.
func TestCustomRejectsBadFaultRates(t *testing.T) {
	for _, rates := range []struct{ data, ctrl float64 }{{1.5, 0}, {-0.1, 0}, {0, 1.0}} {
		s := frfc.FR6(frfc.FastControl, 5).WithSampling(10, 50)
		s.FR.DataFaultRate, s.FR.CtrlFaultRate = rates.data, rates.ctrl
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Run accepted invalid fault rates %+v", rates)
				}
			}()
			frfc.Run(s, 0.05)
		}()
	}
}

func TestPublicFaultSweep(t *testing.T) {
	pts, err := frfc.FaultSweep(frfc.FaultSweepOptions{ResolveOptions: frfc.ResolveOptions{Packets: 80}, Rates: []float64{0.02}, RetryLimit: 10})
	if err != nil || len(pts) != 2 {
		t.Fatalf("got %d points (%v), want 2", len(pts), err)
	}
	detect, retry := pts[0], pts[1]
	if detect.Spec.FR.RetryLimit != 0 || retry.Spec.FR.RetryLimit != 10 {
		t.Fatalf("unexpected policy order: %+v", pts)
	}
	if retry.DeliveredFraction() != 1.0 {
		t.Errorf("retry arm delivered %.2f at 2%% loss", retry.DeliveredFraction())
	}
	if detect.Delivered+detect.LostDetected != detect.Offered {
		t.Errorf("detect-only conservation broken: %+v", detect)
	}
	if detect.Wedged || retry.Wedged {
		t.Errorf("watchdog fired during sweep")
	}

	// A row that cannot run is an error naming it, as in the three sibling
	// sweeps; it used to be a row of zeros.
	_, err = frfc.FaultSweep(frfc.FaultSweepOptions{ResolveOptions: frfc.ResolveOptions{Packets: 10}, Rates: []float64{0.02}, RetryLimit: -1})
	if err == nil || !strings.HasPrefix(err.Error(), `row "loss=0.02 retry=-1": `) {
		t.Errorf("negative retry budget: err = %v, want the failed row named", err)
	}
}

// TestRunObservedMatchesRun: observation never moves the measurement, and a
// nil observer is a bare run.
func TestRunObservedMatchesRun(t *testing.T) {
	spec := frfc.FR6(frfc.FastControl, 5).WithMeshRadix(4).WithSampling(150, 400)
	base := frfc.Run(spec, 0.3)
	obs := frfc.NewObserver(frfc.ObserverOptions{Metrics: true, Trace: true})
	observed := frfc.RunObserved(spec, 0.3, obs)
	if base != observed {
		t.Fatalf("observation changed the simulation:\nbase:     %+v\nobserved: %+v", base, observed)
	}
	nilObs := frfc.RunObserved(spec, 0.3, nil)
	if base != nilObs {
		t.Fatalf("nil observer changed the simulation:\nbase: %+v\nnil:  %+v", base, nilObs)
	}
}

// TestSweepParallelMatchesSweep: a sweep's loads run as RunJobs jobs must be
// bit-identical to the serial Sweep at any worker count, and a re-run over the
// same ResultPath must be served entirely from cache.
func TestSweepParallelMatchesSweep(t *testing.T) {
	s := frfc.FR6(frfc.FastControl, 5).WithMeshRadix(4).WithSampling(150, 300)
	loads := []float64{0.2, 0.4}
	serial := frfc.Sweep(s, loads)
	jobs := make([]frfc.Job, len(loads))
	for i, l := range loads {
		jobs[i] = frfc.Job{Spec: s, Load: l}
	}

	for _, workers := range []int{1, 4} {
		jrs, err := frfc.RunJobs(context.Background(), jobs, frfc.ParallelOptions{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got := make([]frfc.Result, len(jrs))
		for i, jr := range jrs {
			got[i] = jr.Result
		}
		if !reflect.DeepEqual(got, serial) {
			t.Errorf("workers=%d parallel sweep diverged from serial", workers)
		}
	}

	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	first, err := frfc.RunJobs(context.Background(), jobs, frfc.ParallelOptions{Workers: 2, ResultPath: path})
	if err != nil {
		t.Fatal(err)
	}
	second, err := frfc.RunJobs(context.Background(), jobs, frfc.ParallelOptions{Workers: 2, ResultPath: path})
	if err != nil {
		t.Fatal(err)
	}
	for i := range second {
		if !second[i].Cached {
			t.Errorf("job %d re-simulated despite the result store", i)
		}
		if !reflect.DeepEqual(second[i].Result, first[i].Result) {
			t.Errorf("job %d cached result differs", i)
		}
	}
}

// TestPublicSaturationSearch: SaturationThroughput agrees with the serial
// bisection over plain runs.
func TestPublicSaturationSearch(t *testing.T) {
	s := frfc.FR6(frfc.FastControl, 5).WithMeshRadix(4).WithSampling(150, 300)
	want, _, err := experiment.Bisect(s, 0.05, func(s experiment.Spec, load float64) (experiment.Result, error) {
		return experiment.Run(s, load), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := frfc.SaturationThroughput(s, 0.05); got != want {
		t.Errorf("SaturationThroughput found %.4f, the serial bisection %.4f", got, want)
	}
}

// TestSpecBitErrorRun: the corruption fields of a spec reach a measured run
// for both network families — the FR run reports the full corruption ledger,
// the VC baseline reports detection counters only.
func TestSpecBitErrorRun(t *testing.T) {
	fr := frfc.FR6(frfc.FastControl, 5).WithSampling(200, 300)
	fr.FR.BER, fr.FR.CrcBits, fr.FR.E2ECheck, fr.FR.RetryLimit = 5e-3, 4, true, 8
	r := frfc.Run(fr, 0.3)
	if r.SampledDelivered != r.SampleSize {
		t.Fatalf("FR run under BER lost sampled packets: %d of %d", r.SampledDelivered, r.SampleSize)
	}
	if r.CorruptedFlits == 0 || r.CrcDetected == 0 {
		t.Fatalf("FR corruption ledger empty: %+v", r)
	}

	vc := frfc.VC8(frfc.FastControl, 5).WithSampling(200, 300)
	vc.VC.BER = 5e-3
	rv := frfc.Run(vc, 0.3)
	if rv.SampledDelivered != rv.SampleSize {
		t.Fatalf("VC run under BER lost sampled packets: %d of %d", rv.SampledDelivered, rv.SampleSize)
	}
	if rv.CorruptedFlits == 0 || rv.CrcDetected == 0 {
		t.Fatalf("VC corruption ledger empty: %+v", rv)
	}
}

// TestSpecChaosRun: a chaos campaign set on a spec expands deterministically —
// two runs of the same spec agree exactly, and the campaign actually injects
// faults.
func TestSpecChaosRun(t *testing.T) {
	s := frfc.FR6(frfc.FastControl, 5).WithSampling(150, 300)
	s.ChaosIntensity, s.ChaosSeed = 0.4, 11
	a := frfc.Run(s, 0.3)
	b := frfc.Run(s, 0.3)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("chaos runs diverged:\nfirst:  %+v\nsecond: %+v", a, b)
	}
	if a.DroppedFlits == 0 && a.CorruptedFlits == 0 {
		t.Fatalf("chaos campaign injected nothing: %+v", a)
	}
}
