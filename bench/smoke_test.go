package main

import (
	"math"
	"os/exec"
	"strconv"
	"strings"
	"testing"
)

// TestQuickSmoke runs the whole benchmark at smoke sizes and checks that every
// end-to-end metric of BENCHMARK.json is printed for every workload with a
// finite value, and that no operation failed. It asserts no bound: the sizes
// are too small for the numbers to mean anything.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two binaries and runs four workloads")
	}
	bf, err := loadBenchFile("../" + benchFilePath)
	if err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command("bash", "run.sh", "-quick").CombinedOutput()
	if err != nil {
		t.Fatalf("run.sh -quick: %v\n%s", err, out)
	}
	printed := map[string]string{}
	for _, line := range strings.Split(string(out), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && strings.Contains(f[0], "@") {
			printed[f[0]] = f[1]
		}
	}
	for _, w := range bf.Workloads {
		for _, def := range bf.EndToEnd {
			key := def.Name + "@" + w.Name
			v, err := strconv.ParseFloat(printed[key], 64)
			if err != nil || math.IsNaN(v) || math.IsInf(v, 0) || v == 0 {
				t.Errorf("%s printed %q, want a finite non-zero value", key, printed[key])
			}
		}
		if got := printed["failed_ops@"+w.Name]; got != "0" {
			t.Errorf("failed_ops@%s = %q, want 0\n%s", w.Name, got, out)
		}
	}
	for _, def := range bf.PerLayer {
		found := false
		for _, w := range bf.Workloads {
			if v, ok := printed[def.Name+"@"+w.Name]; ok && v != "missing" && v != "n/a" {
				found = true
			}
		}
		if !found {
			t.Errorf("per-layer metric %s was measured on no workload", def.Name)
		}
	}
}
