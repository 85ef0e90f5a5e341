package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"frfc/internal/core"
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
// point per mode. Text or CSV, the row is named (its Spec.Name) on stderr and the exit code is
// 1 (-faults used to print WEDGED and exit 0); the text form marks the row.
func TestWedgedRowExitsOneInEveryMode(t *testing.T) {
	for _, tc := range []struct {
		mode, name string
		table      func([]experiment.Resolved) table
		row        func(p *experiment.Resolved)
	}{
		{"faults", "loss=0.05 retry=8", faultTable, func(p *experiment.Resolved) {
			p.Spec.PacketLen, p.Spec.FR.DataFaultRate, p.Spec.FR.RetryLimit = 5, 0.05, 8
		}},
		{"reliability", "link-flap", reliabilityTable, func(p *experiment.Resolved) {
			p.Spec.FR.RetryLimit = 8
		}},
		{"integrity", "ber=0.001 e2e=true", integrityTable, func(p *experiment.Resolved) {
			p.Spec.FR.BER, p.Spec.FR.CrcBits, p.Spec.FR.E2ECheck = 0.001, 4, true
		}},
		{"chaos", "intensity=0.5", chaosTable, func(p *experiment.Resolved) {
			p.Spec.ChaosIntensity, p.Spec.ChaosSeed = 0.5, 7
			p.Events = make([]core.FaultEvent, 3)
		}},
	} {
		point := func(wedged bool) table {
			p := experiment.Resolved{Spec: experiment.Spec{Name: tc.name}, Wedged: wedged}
			p.Offered, p.Delivered = 10, 9
			tc.row(&p)
			return tc.table([]experiment.Resolved{p})
		}
		for _, csv := range []bool{false, true} {
			var healthy, healthyErr, stdout, stderr bytes.Buffer
			if code := printTable(&healthy, &healthyErr, point(false), csv); code != 0 || healthyErr.Len() != 0 {
				t.Errorf("%s csv=%v: healthy row exit %d, stderr %q", tc.mode, csv, code, healthyErr.String())
			}
			if code := printTable(&stdout, &stderr, point(true), csv); code != 1 {
				t.Errorf("%s csv=%v: wedged row exit %d, want 1", tc.mode, csv, code)
			}
			if want := `sweep: row "` + tc.name + `" wedged (no-progress watchdog fired)` + "\n"; stderr.String() != want {
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
