package experiment

import (
	"context"
	"strings"
	"testing"

	"frfc/internal/core"
	"frfc/internal/topology"
)

// TestReliabilitySweepGracefulDegradation is the hard-fault tolerance
// headline: under scheduled link and router outages with fault-aware table
// routing and end-to-end retry, still-connected traffic is delivered in full,
// disconnected traffic fails fast as unreachable instead of abandoned, the
// watchdog never fires, and once a failed link is repaired the mean latency
// returns to within 10% of its pre-fault level.
func TestReliabilitySweepGracefulDegradation(t *testing.T) {
	if testing.Short() {
		t.Skip("reliability sweep is a full-resolution experiment; skipped in -short")
	}
	points := runSerial(t, ReliabilitySweepOptions{ResolveOptions: ResolveOptions{Check: true}}.Cells())
	if len(points) != 4 {
		t.Fatalf("expected 4 default scenarios, got %d", len(points))
	}
	byName := map[string]ReliabilityPoint{}
	for _, p := range points {
		t.Logf("%+v", p)
		byName[p.Scenario] = p
		if p.Wedged {
			t.Errorf("%s: watchdog fired", p.Scenario)
		}
		if p.Offered == 0 {
			t.Fatalf("%s: offered nothing", p.Scenario)
		}
		if p.Delivered+p.Abandoned+p.Unreachable != p.Offered {
			t.Errorf("%s: packet fates don't conserve: %+v", p.Scenario, p)
		}
		if p.Abandoned != 0 {
			t.Errorf("%s: %d packets abandoned; hard-fault losses must resolve as delivered or unreachable", p.Scenario, p.Abandoned)
		}
	}

	healthy := byName["healthy"]
	if healthy.Delivered != healthy.Offered || healthy.Unreachable != 0 || healthy.DroppedFlits != 0 {
		t.Errorf("healthy baseline degraded: %+v", healthy)
	}

	// A single failed link never disconnects a mesh: reroute plus retry must
	// keep delivery at 100% with or without the repair.
	for _, name := range []string{"link-down", "link-flap"} {
		p := byName[name]
		if p.Delivered != p.Offered {
			t.Errorf("%s: delivered %d of %d despite the mesh staying connected", name, p.Delivered, p.Offered)
		}
	}

	// The acceptance criterion: after the link comes back, post-recovery mean
	// latency is within 10% of the pre-fault mean.
	flap := byName["link-flap"]
	if flap.LatencyRecovery == 0 {
		t.Fatalf("link-flap recorded no post-recovery deliveries: %+v", flap)
	}
	if flap.LatencyRecovery < 0.9 || flap.LatencyRecovery > 1.1 {
		t.Errorf("link-flap latency did not recover: pre=%.2f post=%.2f ratio=%.3f (want within 10%%)",
			flap.PreFaultLatency, flap.PostRecoveryLatency, flap.LatencyRecovery)
	}

	// Killing a router disconnects its local NI: traffic to and from it fails
	// fast as unreachable, everything between live nodes still arrives.
	rd := byName["router-down"]
	if rd.Unreachable == 0 {
		t.Errorf("router-down reported no unreachable packets: %+v", rd)
	}
	if rd.Delivered+rd.Unreachable != rd.Offered {
		t.Errorf("router-down lost connected-pair packets: %+v", rd)
	}
}

// TestReliabilityCellRejectsInvalidScenario checks that a malformed schedule
// is refused up front instead of corrupting a run, and that the scenario is
// named by the cell alone: its error, which the harness wraps in the cell's
// name, does not name it again.
func TestReliabilityCellRejectsInvalidScenario(t *testing.T) {
	bad := ReliabilityScenario{Name: "bad", Events: []core.FaultEvent{
		{At: 100, Kind: core.LinkDown, A: 3, B: 9}, // not neighbors on a 4x4 mesh
	}}
	cells := ReliabilitySweepOptions{Scenarios: []ReliabilityScenario{bad}}.Cells()
	if _, err := cells[0].Run(context.Background()); err == nil {
		t.Fatal("expected an error for a non-adjacent link fault")
	} else if !strings.Contains(cells[0].Name, `"bad"`) || strings.Contains(err.Error(), `"bad"`) {
		t.Errorf("cell %s failed with %v: want the scenario named by the cell, not again by the error", cells[0].Name, err)
	}
}

// TestReliabilityCellCancellation checks ctx cancellation aborts a cell.
func TestReliabilityCellCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cells := ReliabilitySweepOptions{Scenarios: []ReliabilityScenario{{Name: "healthy"}}}.Cells()
	if _, err := cells[0].Run(ctx); err == nil {
		t.Fatal("expected ctx.Err() from a cancelled cell")
	}
}

// TestDefaultReliabilityScenariosCoverEveryKind keeps the default rows
// exercising all three fault kinds on valid mesh links.
func TestDefaultReliabilityScenariosCoverEveryKind(t *testing.T) {
	mesh := topology.NewMesh(4)
	kinds := map[core.FaultKind]bool{}
	for _, sc := range DefaultReliabilityScenarios(4) {
		if err := core.ValidateFaults(mesh, sc.Events, true); err != nil {
			t.Errorf("default scenario %q invalid: %v", sc.Name, err)
		}
		for _, ev := range sc.Events {
			kinds[ev.Kind] = true
		}
	}
	for _, k := range []core.FaultKind{core.LinkDown, core.LinkUp, core.RouterDown} {
		if !kinds[k] {
			t.Errorf("default scenarios never exercise fault kind %v", k)
		}
	}
}
