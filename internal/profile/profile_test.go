package profile

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"frfc/internal/sim"
	"frfc/internal/topology"
)

// A nil registry must absorb every recording call without panicking or
// allocating.
func TestNilRegistrySafe(t *testing.T) {
	var r *Registry
	r.RouterTick(0, 1, 2, 3, 4)
	r.ComponentTick(CompNI, 1, true)
	r.SampleMem()
	r.Merge(NewRegistry(0))
	if r.Due(64) {
		t.Fatal("nil registry reported a due epoch")
	}
	if ticks, active := r.Totals(); ticks != 0 || active != 0 {
		t.Fatalf("nil totals = %d/%d", ticks, active)
	}
	if f := r.IdleFraction(); f != 0 {
		t.Fatalf("nil idle fraction = %g", f)
	}
	if h := r.Hottest(3); h != nil {
		t.Fatalf("nil hottest = %v", h)
	}
	if s := r.Summary(); s != "" {
		t.Fatalf("nil summary = %q", s)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		r.RouterTick(0, 1, 1, 1, 1)
		r.ComponentTick(CompSink, 0, false)
	}); allocs != 0 {
		t.Fatalf("nil registry allocated %v per op", allocs)
	}
}

func TestAccountingAndIdleFraction(t *testing.T) {
	r := NewRegistry(0)
	if r.Epoch != topology.DefaultEpoch {
		t.Fatalf("default epoch = %d", r.Epoch)
	}
	r.Init(2)
	// Node 0: 2 router ticks, 1 active; node 1: 2 ticks, 0 active.
	r.RouterTick(0, 1, 2, 3, 4)
	r.RouterTick(0, 0, 0, 0, 0)
	r.RouterTick(1, 0, 0, 0, 0)
	r.RouterTick(1, 0, 0, 0, 0)
	r.ComponentTick(CompNI, 0, true)
	r.ComponentTick(CompSink, 0, false)

	ticks, active := r.Totals()
	if ticks != 6 || active != 2 {
		t.Fatalf("totals = %d/%d, want 6/2", ticks, active)
	}
	if f := r.IdleFraction(); math.Abs(f-2.0/3) > 1e-12 {
		t.Fatalf("idle fraction = %g", f)
	}
	ph := r.PhaseTotals()
	if ph[PhaseSched] != 1 || ph[PhaseArb] != 2 || ph[PhaseSwitch] != 3 || ph[PhaseCredit] != 4 {
		t.Fatalf("phase totals = %v", ph)
	}
	hot := r.Hottest(5)
	if len(hot) != 2 || hot[0].Node != 0 || hot[0].ActiveFraction != 0.5 || hot[1].Node != 1 {
		t.Fatalf("hottest = %+v", hot)
	}
	if hot[0].X != 0 || hot[0].Y != 0 || hot[1].X != 1 || hot[1].Y != 0 {
		t.Fatalf("hottest coords = %+v", hot)
	}
	if s := r.Summary(); !strings.Contains(s, "router") || !strings.Contains(s, "sched 1") {
		t.Fatalf("summary = %q", s)
	}
}

func TestCloneMerge(t *testing.T) {
	a := NewRegistry(32)
	a.Init(2)
	a.RouterTick(0, 1, 1, 1, 1)
	a.Cycles = 100
	a.Mem = MemStats{Epochs: 2, AllocBytes: 10, Mallocs: 3, Frees: 1, NumGC: 1, PauseNs: 7, MaxEpochAllocBytes: 8}

	b := &Registry{Grid: a.Clone()}
	b.RouterTick(0, 0, 0, 0, 0)
	if a.Nodes[0].Ticks[CompRouter] != 1 || b.Nodes[0].Ticks[CompRouter] != 2 {
		t.Fatal("clone shares node storage")
	}

	c := NewRegistry(32)
	c.Init(3)
	c.RouterTick(5, 0, 2, 0, 0)
	c.Cycles = 50
	c.Mem = MemStats{Epochs: 1, AllocBytes: 20, MaxEpochAllocBytes: 20}

	a.Merge(c)
	if a.Radix != 3 || len(a.Nodes) != 9 {
		t.Fatalf("merge did not grow: radix %d, %d nodes", a.Radix, len(a.Nodes))
	}
	if a.Cycles != 150 {
		t.Fatalf("cycles = %d", a.Cycles)
	}
	if a.Nodes[5].Phases[PhaseArb] != 2 || a.Nodes[0].Ticks[CompRouter] != 1 {
		t.Fatal("merge lost counts")
	}
	if a.Mem.Epochs != 3 || a.Mem.AllocBytes != 30 || a.Mem.MaxEpochAllocBytes != 20 {
		t.Fatalf("mem merge = %+v", a.Mem)
	}
}

func TestSampleMemPrimes(t *testing.T) {
	r := NewRegistry(0)
	r.SampleMem()
	if r.Mem.Epochs != 0 {
		t.Fatalf("first sample recorded a delta: %+v", r.Mem)
	}
	// Allocate something observable, then sample the delta.
	sink := make([][]byte, 0, 64)
	for i := 0; i < 64; i++ {
		sink = append(sink, make([]byte, 1024))
	}
	_ = sink
	r.SampleMem()
	if r.Mem.Epochs != 1 || r.Mem.AllocBytes <= 0 || r.Mem.Mallocs <= 0 {
		t.Fatalf("second sample missed the allocation: %+v", r.Mem)
	}
	if r.Mem.MaxEpochAllocBytes != r.Mem.AllocBytes {
		t.Fatalf("max epoch delta %d != only delta %d", r.Mem.MaxEpochAllocBytes, r.Mem.AllocBytes)
	}
}

func TestDue(t *testing.T) {
	r := NewRegistry(64)
	for _, tc := range []struct {
		now  sim.Cycle
		want bool
	}{{0, true}, {1, false}, {63, false}, {64, true}, {128, true}} {
		if got := r.Due(tc.now); got != tc.want {
			t.Fatalf("Due(%d) = %v", tc.now, got)
		}
	}
}

func TestWriteIdleCSVAndJSON(t *testing.T) {
	r := NewRegistry(0)
	r.Init(2)
	r.RouterTick(0, 0, 0, 0, 0)
	r.RouterTick(0, 1, 0, 0, 0)
	r.RouterTick(3, 0, 0, 0, 0)

	var csv bytes.Buffer
	if err := r.WriteIdleCSV(&csv); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if len(lines) != 3 || !strings.HasPrefix(lines[0], "#") {
		t.Fatalf("csv shape wrong:\n%s", csv.String())
	}
	if lines[1] != "0.5000,0.0000" || lines[2] != "0.0000,1.0000" {
		t.Fatalf("csv values wrong:\n%s", csv.String())
	}

	var js bytes.Buffer
	if err := topology.WriteJSON(&js, r); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(js.Bytes(), &decoded); err != nil {
		t.Fatalf("json invalid: %v", err)
	}
	if decoded["radix"].(float64) != 2 {
		t.Fatalf("json radix = %v", decoded["radix"])
	}
	if _, ok := decoded["mem"]; !ok {
		t.Fatal("json missing mem block")
	}

	// Uninitialised registries refuse grid export rather than writing junk.
	if err := NewRegistry(0).WriteIdleCSV(&bytes.Buffer{}); err == nil {
		t.Fatal("uninitialised WriteIdleCSV did not error")
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry(0)
	r.Init(3)
	r.RouterTick(4, 1, 1, 1, 1)
	r.RouterTick(4, 0, 0, 0, 0)
	r.Cycles = 256
	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`frfc_profile_ticks_total{node="4",x="1",y="1",component="router"} 2`,
		`frfc_profile_active_ticks_total{node="4",x="1",y="1",component="router"} 1`,
		`frfc_profile_phase_work_total{node="4",x="1",y="1",phase="sched"} 1`,
		`frfc_profile_idle_fraction{node="4",x="1",y="1"} 0.5`,
		"frfc_profile_cycles 256",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// Every non-comment line is "name{labels} value".
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if len(strings.Fields(line)) != 2 {
			t.Fatalf("malformed exposition line: %q", line)
		}
	}
}
