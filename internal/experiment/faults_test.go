package experiment

import (
	"context"
	"reflect"
	"testing"
)

// runSerial resolves a sweep's rows one after another — the reference the
// harness's pooled ResolveRows must reproduce.
func runSerial(t *testing.T, rows []Spec) []Resolved {
	t.Helper()
	points := make([]Resolved, 0, len(rows))
	for _, s := range rows {
		p, err := Resolve(context.Background(), s)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		points = append(points, p)
	}
	return points
}

// TestFaultSweepRetryDeliversEverything is the recovery layer's headline
// claim: with the end-to-end retry arm enabled, every offered packet is
// delivered at percent-level loss rates, while the detection-only arm loses
// packets at any nonzero rate. A generous budget keeps the retry arm perfect
// through 5% loss; at 10-20% the budget may run out, but conservation must
// still hold.
func TestFaultSweepRetryDeliversEverything(t *testing.T) {
	if testing.Short() {
		t.Skip("fault sweep is a full-resolution experiment; skipped in -short")
	}
	o := FaultSweepOptions{ResolveOptions: ResolveOptions{Packets: 250}, RetryLimit: 12}
	points := runSerial(t, o.Rows())
	if len(points) != 12 {
		t.Fatalf("expected 12 points (6 rates x 2 policies), got %d", len(points))
	}
	for _, p := range points {
		t.Logf("%+v", p)
		fr := p.Spec.FR
		if p.Wedged {
			t.Errorf("watchdog fired at loss=%.2f retry=%d", fr.DataFaultRate, fr.RetryLimit)
		}
		if p.Offered != 250 {
			t.Errorf("offered %d packets at loss=%.2f retry=%d, want 250", p.Offered, fr.DataFaultRate, fr.RetryLimit)
		}
		switch {
		case fr.RetryLimit == 0:
			// Detection-only: delivered + detected losses account for
			// everything, and nothing is retried or abandoned.
			if p.Delivered+p.LostDetected != p.Offered {
				t.Errorf("detect-only conservation broken at loss=%.2f: %+v", fr.DataFaultRate, p)
			}
			if p.Retried != 0 || p.Abandoned != 0 {
				t.Errorf("retry machinery active in detect-only arm at loss=%.2f: %+v", fr.DataFaultRate, p)
			}
			if fr.DataFaultRate >= 0.05 && p.LostDetected == 0 {
				t.Errorf("no losses detected at %.0f%% loss without retry", fr.DataFaultRate*100)
			}
		default:
			// Retry arm: every packet resolves as delivered or abandoned.
			if p.Delivered+p.Abandoned != p.Offered {
				t.Errorf("retry conservation broken at loss=%.2f: %+v", fr.DataFaultRate, p)
			}
			if fr.DataFaultRate <= 0.05 {
				if p.Delivered != p.Offered {
					t.Errorf("retry arm lost packets at %.0f%% loss: %+v", fr.DataFaultRate*100, p)
				}
				if fr.DataFaultRate >= 0.02 && p.Retried == 0 {
					t.Errorf("no retries at %.0f%% loss; fault injection inactive?", fr.DataFaultRate*100)
				}
			}
			if fr.DataFaultRate == 0 && (p.Retried != 0 || p.LostDetected != 0 || p.DroppedFlits != 0) {
				t.Errorf("activity on the fault-free row: %+v", p)
			}
		}
	}
}

// TestFaultSweepIsDeterministic: the sweep is seeded, so two runs with the
// same options must agree row for row.
func TestFaultSweepIsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("fault sweep is a full-resolution experiment; skipped in -short")
	}
	o := FaultSweepOptions{ResolveOptions: ResolveOptions{Packets: 120}, Rates: []float64{0.03}, RetryLimit: 8}
	a := runSerial(t, o.Rows())
	b := runSerial(t, o.Rows())
	if !reflect.DeepEqual(a, b) {
		t.Errorf("identical options diverged:\n  %+v\n  %+v", a, b)
	}
}

// TestResolveArmsCheckerAndWatchdog: Check is declared once, in
// ResolveOptions, so it reaches the spec of every resolved sweep's rows — the
// fault sweep used to have no such field and dropped the flag — and Resolve
// runs the network of exactly that spec, offering its SamplePackets.
func TestResolveArmsCheckerAndWatchdog(t *testing.T) {
	s := ResolveOptions{Packets: 1, Check: true}.withDefaults(400, 1).spec()
	if !s.Check || s.FR.WatchdogCycles == 0 || s.SamplePackets != 1 {
		t.Fatalf("row spec: Check=%v WatchdogCycles=%d SamplePackets=%d, want the checker and the watchdog armed, one packet", s.Check, s.FR.WatchdogCycles, s.SamplePackets)
	}
	flushNetworks()
	if p, err := Resolve(context.Background(), s); err != nil || p.Offered != 1 || !reflect.DeepEqual(p.Spec, s.withDefaults()) {
		t.Fatalf("Resolve = %+v, %v; want one packet offered by the normalized row", p, err)
	}
	if networks.take(networkKey(s.withDefaults())) == nil {
		t.Fatal("resolve left no network under its spec's key")
	}
}
