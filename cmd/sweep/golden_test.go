package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
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
