package frfc_test

import (
	"reflect"
	"testing"

	"frfc"
)

// TestPublicIntegritySweep: the public wrapper delivers the acceptance
// criterion — 100% delivery with the end-to-end check on at BER 1e-3 and
// above — and is bit-identical at any worker count.
func TestPublicIntegritySweep(t *testing.T) {
	o := frfc.IntegritySweepOptions{ResolveOptions: frfc.ResolveOptions{Packets: 120, Check: true}, BERs: []float64{1e-3, 5e-3}}
	ref, err := frfc.IntegritySweep(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range ref {
		if p.Wedged {
			t.Fatalf("ber=%g e2e=%v wedged", p.BER, p.E2ECheck)
		}
		if p.E2ECheck && (p.Delivered != p.Offered || p.Abandoned != 0) {
			t.Fatalf("ber=%g with e2e check delivered %d of %d", p.BER, p.Delivered, p.Offered)
		}
		if p.CorruptedFlits == 0 {
			t.Fatalf("ber=%g corrupted nothing", p.BER)
		}
	}
	o.Workers = 4
	got, err := frfc.IntegritySweep(o)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref, got) {
		t.Fatalf("workers=4 diverged from serial:\nserial:   %+v\nparallel: %+v", ref, got)
	}
}

// TestPublicChaosSweep: a moderate-intensity campaign (no router kills)
// delivers at least 99% — in practice 100% — and the sweep is bit-identical
// at any worker count.
func TestPublicChaosSweep(t *testing.T) {
	o := frfc.ChaosSweepOptions{ResolveOptions: frfc.ResolveOptions{Packets: 200, Check: true}, Intensities: []float64{0.5}}
	ref, err := frfc.ChaosSweep(o)
	if err != nil {
		t.Fatal(err)
	}
	p := ref[0]
	if p.Wedged {
		t.Fatal("moderate chaos wedged")
	}
	if p.DeliveredFraction() < 0.99 {
		t.Fatalf("moderate chaos delivered only %.2f%%", p.DeliveredFraction()*100)
	}
	if p.Events == 0 || p.DroppedFlits == 0 || p.CorruptedFlits == 0 {
		t.Fatalf("campaign exercised nothing: %+v", p)
	}
	o.Workers = 4
	got, err := frfc.ChaosSweep(o)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref, got) {
		t.Fatalf("workers=4 diverged from serial:\nserial:   %+v\nparallel: %+v", ref, got)
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
