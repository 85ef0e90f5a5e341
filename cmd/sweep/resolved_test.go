package main

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"frfc/internal/core"
	"frfc/internal/experiment"
	"frfc/internal/harness"
)

// The fault modes' sweeps as the modes run them: each sweep's rows resolved
// on the harness pool.

// TestIntegritySweep: the -integrity rows deliver the acceptance criterion —
// 100% delivery with the end-to-end check on at BER 1e-3 and above — and are
// bit-identical at any worker count.
func TestIntegritySweep(t *testing.T) {
	rows := experiment.IntegritySweepOptions{ResolveOptions: experiment.ResolveOptions{Packets: 120, Check: true}, BERs: []float64{1e-3, 5e-3}}.Rows()
	ref, err := harness.ResolveRows(context.Background(), rows, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range ref {
		if p.Wedged {
			t.Fatalf("%s wedged", p.Spec.Name)
		}
		if p.Spec.FR.E2ECheck && (p.Delivered != p.Offered || p.Abandoned != 0) {
			t.Fatalf("%s delivered %d of %d", p.Spec.Name, p.Delivered, p.Offered)
		}
		if p.CorruptedFlits == 0 {
			t.Fatalf("%s corrupted nothing", p.Spec.Name)
		}
	}
	got, err := harness.ResolveRows(context.Background(), rows, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref, got) {
		t.Fatalf("workers=4 diverged from serial:\nserial:   %+v\nparallel: %+v", ref, got)
	}
}

// TestChaosSweep: a moderate-intensity campaign (no router kills) delivers at
// least 99% — in practice 100% — and the sweep is bit-identical at any worker
// count.
func TestChaosSweep(t *testing.T) {
	rows := experiment.ChaosSweepOptions{ResolveOptions: experiment.ResolveOptions{Packets: 200, Check: true}, Intensities: []float64{0.5}}.Rows()
	ref, err := harness.ResolveRows(context.Background(), rows, 0)
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
	if len(p.Events) == 0 || p.DroppedFlits == 0 || p.CorruptedFlits == 0 {
		t.Fatalf("campaign exercised nothing: %+v", p)
	}
	got, err := harness.ResolveRows(context.Background(), rows, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref, got) {
		t.Fatalf("workers=4 diverged from serial:\nserial:   %+v\nparallel: %+v", ref, got)
	}
}

// reliability resolves the -reliability rows of o.
func reliability(o experiment.ReliabilitySweepOptions) ([]experiment.Resolved, error) {
	return harness.ResolveRows(context.Background(), o.Rows(), 0)
}

func TestReliabilitySweep(t *testing.T) {
	pts, err := reliability(experiment.ReliabilitySweepOptions{ResolveOptions: experiment.ResolveOptions{Packets: 200, Check: true}})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("got %d points, want the 4 default scenarios", len(pts))
	}
	for _, p := range pts {
		if p.Wedged {
			t.Errorf("%s: watchdog fired", p.Spec.Name)
		}
		if p.Delivered+p.Abandoned+p.Unreachable != p.Offered {
			t.Errorf("%s: packet fates don't conserve: %+v", p.Spec.Name, p)
		}
		if p.Abandoned != 0 {
			t.Errorf("%s: %d packets abandoned under hard faults", p.Spec.Name, p.Abandoned)
		}
	}
	if pts[0].Spec.Name != "healthy" || pts[0].DeliveredFraction() != 1 {
		t.Errorf("healthy baseline degraded: %+v", pts[0])
	}
}

func TestReliabilitySweepCustomScenario(t *testing.T) {
	flap, err := core.ParseScenario("down 5-6 @300; up 5-6 @700")
	if err != nil {
		t.Fatal(err)
	}
	pts, err := reliability(experiment.ReliabilitySweepOptions{
		ResolveOptions: experiment.ResolveOptions{Packets: 150},
		Scenarios:      []experiment.ReliabilityScenario{{Name: "flap", Events: flap}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 1 || pts[0].Spec.Name != "flap" {
		t.Fatalf("unexpected rows: %+v", pts)
	}
	if pts[0].Delivered != pts[0].Offered {
		t.Errorf("a single repaired link outage must not lose packets: %+v", pts[0])
	}

	if _, err := core.ParseScenario("explode 5 @100"); err == nil {
		t.Fatal("expected a parse error for a malformed scenario")
	}
	apart, err := core.ParseScenario("down 0-15 @100")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reliability(experiment.ReliabilitySweepOptions{
		Scenarios: []experiment.ReliabilityScenario{{Name: "bad", Events: apart}},
	}); err == nil || !strings.Contains(err.Error(), `row "bad": `) || strings.Count(err.Error(), `"bad"`) != 1 {
		t.Fatalf("a link between non-neighbors: err = %v, want one naming the scenario's row once", err)
	}
}
