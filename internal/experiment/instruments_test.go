package experiment

import (
	"context"
	"testing"

	"frfc/internal/metrics"
	"frfc/internal/timeseries"
)

func TestRunInstrumentedMatchesRun(t *testing.T) {
	// Warm up for two publish periods, so Publish fires mid-run.
	s := tiny(FR6(FastControl, 5)).Scaled(400, 2*DefaultPublishEvery)
	plain := Run(s, 0.30)

	probe := &metrics.Probe{Reg: metrics.NewRegistry(0)}
	series := timeseries.New(0, 0)
	published := 0
	instr, err := RunInstrumented(context.Background(), s, 0.30, Instruments{
		Probe:   probe,
		Series:  series,
		Publish: func(Live) { published++ },
	})
	if err != nil {
		t.Fatalf("RunInstrumented: %v", err)
	}
	if instr != plain {
		t.Fatalf("instrumented result differs from plain run:\nplain: %+v\ninstr: %+v", plain, instr)
	}
	if want := 1 + int(instr.Cycles)/DefaultPublishEvery; published != want {
		t.Fatalf("Publish fired %d times over %d cycles at every %d, want %d", published, instr.Cycles, DefaultPublishEvery, want)
	}
	if series.Len() == 0 {
		t.Fatal("series recorded no points")
	}
}

func TestTimeSeriesAcceptedSumsToEjectedTotal(t *testing.T) {
	s := tiny(FR6(FastControl, 5))
	probe := &metrics.Probe{Reg: metrics.NewRegistry(0)}
	series := timeseries.New(metrics.DefaultEpoch, 0)
	res, err := RunInstrumented(context.Background(), s, 0.30, Instruments{Probe: probe, Series: series})
	if err != nil {
		t.Fatalf("RunInstrumented: %v", err)
	}

	var total int64
	for i := range probe.Reg.Nodes {
		total += probe.Reg.Nodes[i].Ejected
	}
	if total == 0 {
		t.Fatal("registry recorded no ejected flits")
	}
	var sum int64
	for _, p := range series.Points() {
		sum += p.Ejected
	}
	if sum != total {
		t.Fatalf("series ejected sums to %d, registry total %d", sum, total)
	}
	// One point per epoch: full windows plus the flushed partial one.
	want := int(res.Cycles / metrics.DefaultEpoch)
	if res.Cycles%metrics.DefaultEpoch != 0 {
		want++
	}
	if series.Len() != want {
		t.Fatalf("series has %d points over %d cycles at epoch %d, want %d",
			series.Len(), res.Cycles, metrics.DefaultEpoch, want)
	}
	last := series.Points()[series.Len()-1]
	if int(last.Packets) != res.SampledDelivered {
		t.Fatalf("final point packets = %d, want %d delivered", last.Packets, res.SampledDelivered)
	}
}

func TestBatchMeansFieldsPopulated(t *testing.T) {
	r := Run(tiny(FR6(FastControl, 5)), 0.30)
	if r.Batches == 0 || r.BatchCI95 <= 0 {
		t.Fatalf("batch-means interval missing: batches=%d half=%v", r.Batches, r.BatchCI95)
	}
	if r.CI95 <= 0 {
		t.Fatal("i.i.d. CI95 no longer populated")
	}
	// Queueing latencies are positively autocorrelated, which is exactly why
	// the batch interval exists; it should be the wider of the two here.
	if r.CISuspect && r.BatchCI95 < r.CI95 {
		t.Errorf("CI flagged suspect but batch interval %v narrower than i.i.d. %v", r.BatchCI95, r.CI95)
	}
}

func TestWarmupUnstableFlag(t *testing.T) {
	s := tiny(FR6(FastControl, 5))
	if r := Run(s, 0.20); r.WarmupUnstable {
		t.Error("light load flagged WarmupUnstable")
	}
	// Beyond saturation source queues grow without bound, so the stabilizer
	// cannot settle before the cap.
	s.MaxWarmupCycles = s.WarmupCycles
	s.DrainFactor = 2
	if r := Run(s, 1.5); !r.WarmupUnstable {
		t.Error("run at 150% load with capped warmup not flagged WarmupUnstable")
	}
}

func TestPublishSnapshots(t *testing.T) {
	s := tiny(FR6(FastControl, 5)).Scaled(400, 2*DefaultPublishEvery)
	probe := metrics.NewProbe(0, true, true, false)
	var snaps []Live
	res, err := RunInstrumented(context.Background(), s, 0.30, Instruments{
		Probe:   probe,
		Publish: func(lv Live) { snaps = append(snaps, lv) },
	})
	if err != nil {
		t.Fatalf("RunInstrumented: %v", err)
	}
	if len(snaps) < 3 {
		t.Fatalf("got %d snapshots over %d cycles, want one every %d and a final one", len(snaps), res.Cycles, DefaultPublishEvery)
	}
	for i, lv := range snaps {
		if i > 0 && lv.Cycle <= snaps[i-1].Cycle {
			t.Fatalf("snapshot cycles not increasing: %d then %d", snaps[i-1].Cycle, lv.Cycle)
		}
		// One stamp covers every registry of the snapshot: a mid-run scrape
		// reads the cycle it was taken at from both (the counter registry
		// used to read 0 until the run was done).
		if lv.Snapshot.Reg == nil || lv.Snapshot.Prof == nil {
			t.Fatalf("snapshot %d lacks a registry the probe carries: %+v", i, lv.Snapshot)
		}
		if lv.Snapshot.Reg.Cycles != lv.Cycle || lv.Snapshot.Prof.Cycles != lv.Cycle {
			t.Fatalf("snapshot %d at cycle %d stamped registry %d, profile %d",
				i, lv.Cycle, lv.Snapshot.Reg.Cycles, lv.Snapshot.Prof.Cycles)
		}
	}
	last := snaps[len(snaps)-1]
	if last.Phase != "done" || int64(last.Cycle) != res.Cycles || last.Delivered != res.SampledDelivered {
		t.Fatalf("final snapshot wrong: %+v vs result cycles=%d delivered=%d", last, res.Cycles, res.SampledDelivered)
	}
	// Snapshots are copies: the earliest must hold fewer ejections than the
	// final registry, not alias it.
	if last.Snapshot.Reg == probe.Reg || &last.Snapshot.Reg.Nodes[0] == &probe.Reg.Nodes[0] {
		t.Fatal("snapshot aliases the live registry")
	}
	if first := snaps[0].Snapshot.Reg; first.Nodes[0].Ejected >= probe.Reg.Nodes[0].Ejected {
		t.Fatalf("first snapshot holds %d ejections at node 0, the finished run %d",
			first.Nodes[0].Ejected, probe.Reg.Nodes[0].Ejected)
	}
}
