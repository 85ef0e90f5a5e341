package experiment

import (
	"context"
	"testing"
)

// runSerial runs a sweep's cells one after another — the reference the
// harness's pooled RunCells must reproduce.
func runSerial[P any](t *testing.T, cells []Cell[P]) []P {
	t.Helper()
	points := make([]P, 0, len(cells))
	for _, c := range cells {
		p, err := c.Run(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
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
	points := runSerial(t, o.Cells())
	if len(points) != 12 {
		t.Fatalf("expected 12 points (6 rates x 2 policies), got %d", len(points))
	}
	for _, p := range points {
		t.Logf("%+v", p)
		if p.Wedged {
			t.Errorf("watchdog fired at loss=%.2f retry=%d", p.DataFaultRate, p.RetryLimit)
		}
		if p.Offered != 250 {
			t.Errorf("offered %d packets at loss=%.2f retry=%d, want 250", p.Offered, p.DataFaultRate, p.RetryLimit)
		}
		switch {
		case p.RetryLimit == 0:
			// Detection-only: delivered + detected losses account for
			// everything, and nothing is retried or abandoned.
			if p.Delivered+p.LostDetected != p.Offered {
				t.Errorf("detect-only conservation broken at loss=%.2f: %+v", p.DataFaultRate, p)
			}
			if p.Retried != 0 || p.Abandoned != 0 {
				t.Errorf("retry machinery active in detect-only arm at loss=%.2f: %+v", p.DataFaultRate, p)
			}
			if p.DataFaultRate >= 0.05 && p.LostDetected == 0 {
				t.Errorf("no losses detected at %.0f%% loss without retry", p.DataFaultRate*100)
			}
		default:
			// Retry arm: every packet resolves as delivered or abandoned.
			if p.Delivered+p.Abandoned != p.Offered {
				t.Errorf("retry conservation broken at loss=%.2f: %+v", p.DataFaultRate, p)
			}
			if p.DataFaultRate <= 0.05 {
				if p.Delivered != p.Offered {
					t.Errorf("retry arm lost packets at %.0f%% loss: %+v", p.DataFaultRate*100, p)
				}
				if p.DataFaultRate >= 0.02 && p.Retried == 0 {
					t.Errorf("no retries at %.0f%% loss; fault injection inactive?", p.DataFaultRate*100)
				}
			}
			if p.DataFaultRate == 0 && (p.Retried != 0 || p.LostDetected != 0 || p.DroppedFlits != 0) {
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
	a := runSerial(t, o.Cells())
	b := runSerial(t, o.Cells())
	if len(a) != len(b) {
		t.Fatalf("point counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("point %d differs between runs:\n  %+v\n  %+v", i, a[i], b[i])
		}
	}
}

// TestResolveArmsCheckerAndWatchdog: Check is declared once, in
// ResolveOptions, so it reaches the spec of every resolved sweep's rows — the
// fault sweep used to have no such field and dropped the flag — and resolve
// runs the network of exactly that spec.
func TestResolveArmsCheckerAndWatchdog(t *testing.T) {
	o := ResolveOptions{Packets: 1, Check: true}.withDefaults(400, 1)
	s := o.spec()
	if !s.Check || s.FR.WatchdogCycles == 0 {
		t.Fatalf("row spec: Check=%v WatchdogCycles=%d, want the checker and the watchdog armed", s.Check, s.FR.WatchdogCycles)
	}
	flushNetworks()
	if _, err := resolve(context.Background(), o, s, nil); err != nil {
		t.Fatal(err)
	}
	if networks.take(networkKey(s.withDefaults())) == nil {
		t.Fatal("resolve left no network under its spec's key")
	}
}
