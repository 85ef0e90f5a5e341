package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"frfc/internal/experiment"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/ from the current output")

// TestFaultModesGolden pins the exact stdout of the four fault modes, text and
// CSV, at -workers 1 and 4. The other tests compare worker counts with each
// other and check inequalities; these files hold the values, so a refactor of
// the sweep machinery that bends a row fails here. Regenerate with
// `go test ./cmd/sweep -run TestFaultModesGolden -update` after a deliberate
// change to the simulator.
func TestFaultModesGolden(t *testing.T) {
	modes := []struct {
		name string
		args []string
	}{
		{"faults", []string{"-faults", "-packets", "200"}},
		{"reliability", []string{"-reliability", "-check"}},
		{"integrity", []string{"-integrity", "-check", "-packets", "200"}},
		{"chaos", []string{"-chaos", "-check", "-packets", "300", "-intensities", "0.25,0.5,1"}},
		{"scenario", []string{"-scenario", "down 5-6 @300; up 5-6 @700"}},
		{"chaos-no-e2e", []string{"-chaos", "-no-e2e", "-chaos-seed", "7"}},
		{"integrity-crc2", []string{"-integrity", "-crc-bits", "2"}},
	}
	for _, m := range modes {
		for _, form := range []string{"txt", "csv"} {
			t.Run(m.name+"-"+form, func(t *testing.T) {
				path := filepath.Join("testdata", m.name+"."+form)
				for _, workers := range []string{"1", "4"} {
					args := append([]string{"-workers", workers}, m.args...)
					if form == "csv" {
						args = append(args, "-csv")
					}
					var stdout, stderr bytes.Buffer
					if code := run(args, &stdout, &stderr); code != 0 {
						t.Fatalf("sweep %s exit %d: %s", strings.Join(args, " "), code, stderr.String())
					}
					if *update && workers == "1" {
						if err := os.WriteFile(path, stdout.Bytes(), 0o644); err != nil {
							t.Fatal(err)
						}
					}
					want, err := os.ReadFile(path)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(stdout.Bytes(), want) {
						t.Errorf("sweep %s differs from %s:\n--- got\n%s--- want\n%s",
							strings.Join(args, " "), path, stdout.Bytes(), want)
					}
				}
			})
		}
	}
}

// TestWedgedRowExitsOneInEveryMode: the no-progress watchdog cannot be tripped
// from a command line, so the one printer is driven with a hand-built wedged
// point per mode. Text or CSV, the row is named on stderr and the exit code is
// 1 (-faults used to print WEDGED and exit 0); the text form marks the row.
func TestWedgedRowExitsOneInEveryMode(t *testing.T) {
	ledger := func(wedged bool) experiment.Resolved {
		l := experiment.Resolved{Wedged: wedged}
		l.Offered, l.Delivered = 10, 9
		return l
	}
	for _, tc := range []struct {
		mode  string
		table func(wedged bool) table
		name  string
	}{
		{"faults", func(w bool) table {
			return faultTable([]experiment.FaultPoint{{DataFaultRate: 0.05, RetryLimit: 8, Resolved: ledger(w)}}, 5)
		}, "fault cell loss=0.05 retry=8"},
		{"reliability", func(w bool) table {
			return reliabilityTable([]experiment.ReliabilityPoint{{Scenario: "link-flap", RetryLimit: 8, Resolved: ledger(w)}})
		}, "scenario link-flap"},
		{"integrity", func(w bool) table {
			return integrityTable([]experiment.IntegrityPoint{{BER: 0.001, CrcBits: 4, E2ECheck: true, Resolved: ledger(w)}})
		}, "integrity cell ber=0.001 e2e=true"},
		{"chaos", func(w bool) table {
			return chaosTable([]experiment.ChaosPoint{{Intensity: 0.5, Seed: 7, Events: 3, Resolved: ledger(w)}})
		}, "chaos campaign intensity=0.5"},
	} {
		for _, csv := range []bool{false, true} {
			var healthy, healthyErr, stdout, stderr bytes.Buffer
			if code := printTable(&healthy, &healthyErr, tc.table(false), csv); code != 0 || healthyErr.Len() != 0 {
				t.Errorf("%s csv=%v: healthy row exit %d, stderr %q", tc.mode, csv, code, healthyErr.String())
			}
			if code := printTable(&stdout, &stderr, tc.table(true), csv); code != 1 {
				t.Errorf("%s csv=%v: wedged row exit %d, want 1", tc.mode, csv, code)
			}
			if want := "sweep: " + tc.name + " wedged (no-progress watchdog fired)\n"; stderr.String() != want {
				t.Errorf("%s csv=%v: stderr %q, want %q", tc.mode, csv, stderr.String(), want)
			}
			want := healthy.String()
			if !csv {
				want = strings.TrimSuffix(want, "\n") + "  WEDGED\n"
			}
			if stdout.String() != want {
				t.Errorf("%s csv=%v: stdout\n%s\nwant\n%s", tc.mode, csv, stdout.String(), want)
			}
		}
	}
}
