package metrics_test

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"frfc/internal/experiment"
	"frfc/internal/metrics"
	"frfc/internal/topology"
)

func TestWritePrometheus(t *testing.T) {
	r := metrics.NewRegistry(32)
	r.Init(4)
	r.Cycles = 500
	r.At(6).ResHits = 11 // x=2, y=1
	r.At(6).Links[topology.East].Flits = 40
	r.At(6).Occ[topology.East].Sample(4, 8)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE frfc_res_hits_total counter",
		`frfc_res_hits_total{node="6",x="2",y="1"} 11`,
		`frfc_link_flits_total{node="6",x="2",y="1",port="E"} 40`,
		`frfc_occupancy_mean_fraction{node="6",x="2",y="1",port="E"} 0.5`,
		"frfc_cycles 500",
		"frfc_epoch 32",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Prometheus output missing %q", want)
		}
	}
	// Unsampled gauges are omitted; node 0's occupancy must not appear.
	if strings.Contains(out, `frfc_occupancy_mean_fraction{node="0"`) {
		t.Error("unsampled occupancy gauge exported")
	}
	// Text exposition: every non-comment line is "name{labels} value".
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if fields := strings.Fields(line); len(fields) != 2 {
			t.Fatalf("malformed exposition line: %q", line)
		}
	}

	// Corrupted-flit receptions reach the exposition: a run under bit errors
	// counts them at the routers that saw them, and the family, which sits
	// after frfc_unreachable_total, carries each router's count.
	spec := experiment.VC8(experiment.FastControl, 5).Scaled(150, 300)
	spec.MeshRadix = 4
	spec.VC.BER = 5e-3
	probe := metrics.NewProbe(0, true, false, false)
	if _, err := experiment.RunInstrumented(context.Background(), spec, 0.3, experiment.Instruments{Probe: probe}); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := probe.Reg.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	out = buf.String()
	var corrupt int64
	for id := range probe.Reg.Nodes {
		n := probe.Reg.Nodes[id].Corrupt
		corrupt += n
		c := probe.Reg.Coord(id)
		if want := fmt.Sprintf("frfc_corrupt_flits_total{node=\"%d\",x=\"%d\",y=\"%d\"} %d\n", id, c.X, c.Y, n); !strings.Contains(out, want) {
			t.Errorf("Prometheus output missing %q", want)
		}
	}
	if corrupt == 0 {
		t.Fatal("a run at BER 5e-3 counted no corrupted flit")
	}
	if u, c := strings.Index(out, "# HELP frfc_unreachable_total"), strings.Index(out, "# HELP frfc_corrupt_flits_total"); u < 0 || c < u ||
		c > strings.Index(out, "# HELP frfc_injected_flits_total") {
		t.Error("frfc_corrupt_flits_total is not between frfc_unreachable_total and frfc_injected_flits_total")
	}
}
