package frfc_test

import (
	"strings"
	"testing"

	"frfc"
)

func TestPublicReliabilitySweep(t *testing.T) {
	pts, err := frfc.ReliabilitySweep(frfc.ReliabilitySweepOptions{ResolveOptions: frfc.ResolveOptions{Packets: 200, Check: true}})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("got %d points, want the 4 default scenarios", len(pts))
	}
	for _, p := range pts {
		if p.Wedged {
			t.Errorf("%s: watchdog fired", p.Scenario)
		}
		if p.Delivered+p.Abandoned+p.Unreachable != p.Offered {
			t.Errorf("%s: packet fates don't conserve: %+v", p.Scenario, p)
		}
		if p.Abandoned != 0 {
			t.Errorf("%s: %d packets abandoned under hard faults", p.Scenario, p.Abandoned)
		}
	}
	if pts[0].Scenario != "healthy" || pts[0].DeliveredFraction() != 1 {
		t.Errorf("healthy baseline degraded: %+v", pts[0])
	}
	if !strings.Contains(pts[0].String(), "delivered=100.0%") {
		t.Errorf("String() = %q", pts[0].String())
	}
}

func TestPublicReliabilitySweepCustomScenario(t *testing.T) {
	flap, err := frfc.ParseScenario("down 5-6 @300; up 5-6 @700")
	if err != nil {
		t.Fatal(err)
	}
	pts, err := frfc.ReliabilitySweep(frfc.ReliabilitySweepOptions{
		ResolveOptions: frfc.ResolveOptions{Packets: 150},
		Scenarios:      []frfc.ReliabilityScenario{{Name: "flap", Events: flap}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 1 || pts[0].Scenario != "flap" {
		t.Fatalf("unexpected rows: %+v", pts)
	}
	if pts[0].Delivered != pts[0].Offered {
		t.Errorf("a single repaired link outage must not lose packets: %+v", pts[0])
	}

	if _, err := frfc.ParseScenario("explode 5 @100"); err == nil {
		t.Fatal("expected a parse error for a malformed scenario")
	}
	apart, err := frfc.ParseScenario("down 0-15 @100")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := frfc.ReliabilitySweep(frfc.ReliabilitySweepOptions{
		Scenarios: []frfc.ReliabilityScenario{{Name: "bad", Events: apart}},
	}); err == nil || !strings.Contains(err.Error(), `"bad"`) {
		t.Fatalf("a link between non-neighbors: err = %v, want one naming the scenario", err)
	}
}

// TestSpecScenarioRun drives a hard-fault scenario through the public Run
// path: a schedule parsed onto Spec.Faults under table routing and retry, the
// checker-on run must deliver its sample, and the scenario columns must be
// populated.
func TestSpecScenarioRun(t *testing.T) {
	spec := frfc.FR6(frfc.FastControl, 5).WithMeshRadix(4).WithSampling(300, 2000)
	spec.Name = "FR6-outage"
	spec.FR.RetryLimit = 8
	spec.Routing = "table"
	spec.Check = true
	faults, err := frfc.ParseScenario("down 5-6 @2500; up 5-6 @4000")
	if err != nil {
		t.Fatal(err)
	}
	spec.Faults = faults
	res := frfc.Run(spec, 0.3)
	if res.SampledDelivered != res.SampleSize {
		t.Fatalf("sample not fully delivered across the outage: %d/%d", res.SampledDelivered, res.SampleSize)
	}
	if res.DeliveredFraction != 1 {
		t.Errorf("DeliveredFraction = %v, want 1 (mesh stays connected)", res.DeliveredFraction)
	}

	if _, err := frfc.ParseScenario("down 5 @2500"); err == nil {
		t.Error("expected a parse error for a scenario without a link pair")
	}
}
