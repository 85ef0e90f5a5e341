package experiment

import (
	"context"
	"math"
	"testing"

	"frfc/internal/metrics"
	"frfc/internal/model"
	"frfc/internal/sim"
	"frfc/internal/topology"
	"frfc/internal/waterfall"
)

// allSubstrateSpecs returns one spec per flow-control substrate, Check armed
// so the ledger's strict conservation assertion panics on any packet whose
// stage components fail to sum to its measured latency.
func allSubstrateSpecs(t *testing.T) []Spec {
	t.Helper()
	specs := []Spec{
		FR6(FastControl, 5),
		VC8(FastControl, 5),
		WormholeSpec("WH8", FastControl, 8, 5),
		PacketSwitchSpec("VCT2", CutThrough, FastControl, 2, 5),
		PacketSwitchSpec("SAF2", StoreForward, FastControl, 2, 5),
		CircuitSpec("CS", FastControl, 5),
	}
	for i := range specs {
		specs[i].Check = true
	}
	return specs
}

// runWaterfall runs one spec with a stage ledger attached and returns the
// result plus the ledger (still holding per-stage histograms).
func runWaterfall(t *testing.T, s Spec, load float64) (Result, *waterfall.Ledger) {
	t.Helper()
	wf := waterfall.New()
	r, _ := RunInstrumented(context.Background(), s, load, &metrics.Probe{WF: wf}, nil)
	return r, wf
}

func stageSum(w *waterfall.Totals) int64 {
	return w.Queue + w.Reserve + w.Arb + w.Stall + w.Sched + w.Link + w.Drain
}

// TestWaterfallConservationAllSubstrates drives every substrate at a
// moderate load under Check and verifies the ledger's books: the per-stage
// totals partition the summed latency exactly, and the ledger's mean agrees
// with the latency statistics to the cycle.
func TestWaterfallConservationAllSubstrates(t *testing.T) {
	for _, s := range allSubstrateSpecs(t) {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			load := 0.30
			if s.Flow == CircuitSwitch {
				// Exclusive source-to-destination paths saturate the
				// circuit substrate far below 30% capacity.
				load = 0.04
			}
			r, wf := runWaterfall(t, s.Scaled(400, 800), load)
			if r.Saturated {
				t.Fatalf("run saturated at load %.2f; pick a sustainable load", load)
			}
			w := r.Observed.Waterfall
			if w.Packets == 0 {
				t.Fatal("no packets in the ledger")
			}
			if w.Packets != int64(r.SampledDelivered) {
				t.Errorf("ledger holds %d packets, %d sampled delivered",
					w.Packets, r.SampledDelivered)
			}
			if sum := stageSum(w); sum != w.Total {
				t.Errorf("stage sum %d != total %d", sum, w.Total)
			}
			mean := float64(w.Total) / float64(w.Packets)
			if math.Abs(mean-r.AvgLatency) > 1e-9 {
				t.Errorf("ledger mean %.4f != AvgLatency %.4f", mean, r.AvgLatency)
			}
			if wf.InFlight() != 0 {
				t.Errorf("%d packets left open in the ledger", wf.InFlight())
			}
		})
	}
}

// TestWaterfallZeroLoadMatchesModel cross-validates the measured stage
// decomposition at near-zero load against internal/model's closed-form
// breakdowns, term by term. Wire time and serialization must match the
// prediction almost exactly; decision/queueing stages may sit slightly above
// their floors from residual contention at 2% load.
func TestWaterfallZeroLoadMatchesModel(t *testing.T) {
	if testing.Short() {
		t.Skip("full-mesh light-load measurement")
	}
	mesh := topology.NewMesh(8)
	pFree := model.Params{Mesh: mesh, PacketLen: 5, LinkDelay: 4, LocalDelay: 1}
	pVC := pFree
	pVC.CreditBufs = 4 // VC8: 4-flit VC queues throttle the drain
	pWH := pFree
	pWH.CreditBufs = 8 // WH8: 8-deep input queues cover the credit loop
	type band struct{ lo, hi float64 }
	cases := []struct {
		spec Spec
		want model.Breakdown
		load float64
		// tol overrides the default acceptance band per stage.
		tol map[string]band
	}{
		{spec: FR6(FastControl, 5), load: 0.02,
			want: model.MeanBreakdownOverUniform(pFree, model.FlitReservationBreakdown)},
		{spec: VC8(FastControl, 5), load: 0.02,
			want: model.MeanBreakdownOverUniform(pVC, model.VirtualChannelBreakdown),
			// interFlit stretch is an upper bound: the credit loop
			// overlaps the head's progress, so the measured drain sits
			// a bit under the prediction.
			tol: map[string]band{"drain": {-1.5, 0.5}}},
		{spec: WormholeSpec("WH8", FastControl, 8, 5), load: 0.02,
			want: model.MeanBreakdownOverUniform(pWH, model.VirtualChannelBreakdown)},
		{spec: PacketSwitchSpec("VCT2", CutThrough, FastControl, 2, 5), load: 0.02,
			want: model.MeanBreakdownOverUniform(pFree, model.CutThroughBreakdown)},
		{spec: PacketSwitchSpec("SAF2", StoreForward, FastControl, 2, 5), load: 0.02,
			want: model.MeanBreakdownOverUniform(pFree, model.StoreAndForwardBreakdown)},
		// Circuit switching saturates near 8% capacity, so "light" load
		// must be lighter still, and the leftover setup contention shows
		// up in reserve (probes queuing behind held channels).
		{spec: CircuitSpec("CS", FastControl, 5), load: 0.005,
			want: model.MeanBreakdownOverUniform(pFree, model.CircuitSwitchBreakdown),
			tol:  map[string]band{"reserve": {-0.5, 4.0}}},
	}
	for _, c := range cases {
		c := c
		c.spec.Check = true
		t.Run(c.spec.Name, func(t *testing.T) {
			t.Parallel()
			r, _ := runWaterfall(t, c.spec.Scaled(600, 800), c.load)
			w := r.Observed.Waterfall
			if w.Packets == 0 {
				t.Fatal("no packets in the ledger")
			}
			n := float64(w.Packets)
			got := map[string]float64{
				"queue":   float64(w.Queue) / n,
				"reserve": float64(w.Reserve) / n,
				"arb":     float64(w.Arb) / n,
				"stall":   float64(w.Stall) / n,
				"sched":   float64(w.Sched) / n,
				"link":    float64(w.Link) / n,
				"drain":   float64(w.Drain) / n,
			}
			want := map[string]float64{
				"queue": c.want.Queue, "reserve": c.want.Reserve,
				"arb": c.want.Arb, "stall": c.want.Stall,
				"sched": c.want.Sched, "link": c.want.Link,
				"drain": c.want.Drain,
			}
			// Defaults: wait stages absorb residual light-load
			// contention above their floors; wire and serialization
			// stages must sit on the prediction, up to the hop-count
			// bias of the finite sampled pair set (±1 cycle at tp=4).
			tol := map[string]band{
				"queue": {-0.5, 2.0}, "reserve": {-0.5, 1.0},
				"arb": {-0.5, 1.0}, "stall": {-0.5, 1.0},
				"sched": {-0.5, 1.0}, "link": {-1.0, 1.0},
				"drain": {-0.5, 0.5},
			}
			for st, b := range c.tol {
				tol[st] = b
			}
			for _, st := range []string{"queue", "reserve", "arb", "stall", "sched", "link", "drain"} {
				diff := got[st] - want[st]
				if diff < tol[st].lo || diff > tol[st].hi {
					t.Errorf("%s: measured %.2f vs predicted %.2f (diff %+.2f outside [%.2f, %.2f])",
						st, got[st], want[st], diff, tol[st].lo, tol[st].hi)
				}
			}
		})
	}
}

// TestWaterfallDoesNotPerturbResults runs one spec per substrate with and
// without the ledger and requires the whole measurement — every Result field
// but the Observed sidecar — to be bit-identical — enabling latency provenance is pure observation.
func TestWaterfallDoesNotPerturbResults(t *testing.T) {
	for _, s := range allSubstrateSpecs(t) {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			sc := s.Scaled(200, 600)
			plain := Run(sc, 0.25)
			instr, _ := runWaterfall(t, sc, 0.25)
			instr.Observed = nil
			if plain != instr {
				t.Errorf("results diverge with the ledger attached:\nplain: %+v\nwf:    %+v", plain, instr)
			}
		})
	}
}

// TestWaterfallWithRetryConserves exercises the failed-attempt path: under
// fault injection with end-to-end retry, every re-offered attempt folds its
// abandoned progress back into queue time, and conservation must still hold
// exactly (Check panics otherwise).
func TestWaterfallWithRetryConserves(t *testing.T) {
	s := FR6(FastControl, 5)
	s.Check = true
	s.FR.DataFaultRate = 0.002
	s.FR.RetryLimit = 4
	r, wf := runWaterfall(t, s.Scaled(300, 800), 0.20)
	w := r.Observed.Waterfall
	if w.Packets == 0 {
		t.Fatal("no packets in the ledger")
	}
	if sum := stageSum(w); sum != w.Total {
		t.Errorf("stage sum %d != total %d under retry", sum, w.Total)
	}
	if r.RetriedPackets == 0 {
		t.Log("note: no retries triggered at this fault rate; path untested this run")
	}
	if wf.InFlight() != 0 {
		t.Errorf("%d packets left open in the ledger", wf.InFlight())
	}
}

// TestWaterfallStageStatsExposed checks the ledger's per-stage histograms:
// counts match the packet count and the per-stage means agree with the
// totals.
func TestWaterfallStageStatsExposed(t *testing.T) {
	s := VC8(FastControl, 5)
	s.Check = true
	r, wf := runWaterfall(t, s.Scaled(300, 600), 0.30)
	totals := wf.Totals().Stages()
	for st := waterfall.Stage(0); st < waterfall.NumStages; st++ {
		ls := wf.StageStats(st)
		if ls.N() != r.Observed.Waterfall.Packets {
			t.Fatalf("stage %s histogram holds %d samples, want %d", st, ls.N(), r.Observed.Waterfall.Packets)
		}
		wantMean := float64(totals[st]) / float64(r.Observed.Waterfall.Packets)
		if math.Abs(ls.Mean()-wantMean) > 1e-9 {
			t.Errorf("stage %s mean %.4f != totals mean %.4f", st, ls.Mean(), wantMean)
		}
	}
	v := wf.View()
	if v.Packets != r.Observed.Waterfall.Packets {
		t.Errorf("view packets %d != %d", v.Packets, r.Observed.Waterfall.Packets)
	}
	var share float64
	for _, sv := range v.Stages {
		share += sv.Share
	}
	if math.Abs(share-1.0) > 1e-9 {
		t.Errorf("stage shares sum to %.6f, want 1", share)
	}
	_ = sim.Cycle(0)
}
