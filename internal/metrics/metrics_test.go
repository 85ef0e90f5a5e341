package metrics

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"frfc/internal/sim"
	"frfc/internal/topology"
	"frfc/internal/trace"
)

func TestNilProbeIsSafeAndFree(t *testing.T) {
	var p *Probe
	if p.Enabled() {
		t.Fatal("nil probe claims to be enabled")
	}
	if p.SampleDue(0) {
		t.Fatal("nil probe claims a sample is due")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		p.Init(8)
		p.Occupancy(3, 1, 2, 8)
		p.ReserveHit(10, 3, 0, 7, 12)
		p.ReserveMiss(3, 0)
		p.Late(10, 3, 1, 7, 0)
		p.ArbConflict(3, 0)
		p.CreditStall(3, 0)
		p.Route(10, 3, 0, 7)
		p.Inject(10, 3, 7, 0)
		p.Eject(14, 5, 7, 0)
		p.Traverse(11, 3, 0, 7, 0)
		p.CtrlForward(3, 0)
		p.Retry(20, 3, 7, 1)
		p.Nack(5)
		p.Wedge(30)
	})
	if allocs != 0 {
		t.Fatalf("disabled probe allocated %v times per call batch", allocs)
	}
}

func TestEnabledProbeHotPathDoesNotAllocate(t *testing.T) {
	p := &Probe{Reg: NewRegistry(0), Tracer: trace.New(1 << 10)}
	p.Init(8)
	allocs := testing.AllocsPerRun(1000, func() {
		p.Occupancy(3, 1, 2, 8)
		p.ReserveHit(10, 3, 0, 7, 12)
		p.ReserveMiss(3, 0)
		p.ArbConflict(3, 0)
		p.CreditStall(3, 0)
		p.Inject(10, 3, 7, 0)
		p.Traverse(11, 3, 0, 7, 0)
		p.CtrlForward(3, 0)
		p.Eject(14, 5, 7, 0)
	})
	if allocs != 0 {
		t.Fatalf("enabled probe allocated %v times per call batch", allocs)
	}
}

func TestSampleDue(t *testing.T) {
	p := &Probe{Reg: NewRegistry(50)}
	due := 0
	for now := sim.Cycle(0); now < 200; now++ {
		if p.SampleDue(now) {
			due++
		}
	}
	if due != 4 {
		t.Fatalf("SampleDue fired %d times in 200 cycles with epoch 50, want 4", due)
	}
}

func TestRegistryDefaultEpoch(t *testing.T) {
	if r := NewRegistry(0); r.Epoch != DefaultEpoch {
		t.Fatalf("epoch = %d, want default %d", r.Epoch, DefaultEpoch)
	}
	if r := NewRegistry(17); r.Epoch != 17 {
		t.Fatalf("epoch = %d, want 17", r.Epoch)
	}
}

func TestRegistryInitIdempotent(t *testing.T) {
	r := NewRegistry(0)
	r.Init(4)
	r.At(3).ResHits = 9
	r.Init(4)
	if r.Nodes[3].ResHits != 9 {
		t.Fatal("re-Init dropped existing counts")
	}
	r.Init(8)
	if len(r.Nodes) != 64 || r.Nodes[3].ResHits != 9 {
		t.Fatalf("growing Init lost state: len=%d hits=%d", len(r.Nodes), r.Nodes[3].ResHits)
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	if g.Mean() != 0 || g.MeanFraction() != 0 {
		t.Fatal("empty gauge not zero")
	}
	g.Sample(2, 8)
	g.Sample(6, 8)
	if g.Mean() != 4 {
		t.Fatalf("Mean = %v, want 4", g.Mean())
	}
	if g.MeanFraction() != 0.5 {
		t.Fatalf("MeanFraction = %v, want 0.5", g.MeanFraction())
	}
	if g.Max != 6 {
		t.Fatalf("Max = %d, want 6", g.Max)
	}
	// Unbounded (capacity 0) pools must not divide by zero.
	var u Gauge
	u.Sample(3, 0)
	if f := u.MeanFraction(); f != 0 {
		t.Fatalf("MeanFraction with cap 0 = %v, want 0", f)
	}
}

func TestWriteJSONRoundTrips(t *testing.T) {
	p := &Probe{Reg: NewRegistry(32)}
	p.Init(4)
	p.ReserveHit(10, 5, 0, 1, 12)
	p.Traverse(11, 5, 0, 1, 0)
	p.Reg.Cycles = 100

	var buf bytes.Buffer
	if err := topology.WriteJSON(&buf, p.Reg); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var back Registry
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("JSON does not round-trip: %v", err)
	}
	if back.Epoch != 32 || back.Radix != 4 || back.Cycles != 100 {
		t.Fatalf("header lost: %+v", back)
	}
	if back.Nodes[5].ResHits != 1 || back.Nodes[5].Links[0].Flits != 1 {
		t.Fatalf("node counts lost: %+v", back.Nodes[5])
	}
}

func TestHeatmapCSVs(t *testing.T) {
	r := NewRegistry(0)
	r.Init(2)
	r.Cycles = 100
	// Node 3 sends 40 data flits east; node 0's Local pool half full.
	r.At(3).Links[topology.East].Flits = 40
	r.At(0).Occ[topology.Local].Sample(4, 8)

	var occ bytes.Buffer
	if err := r.WriteOccupancyCSV(&occ); err != nil {
		t.Fatalf("WriteOccupancyCSV: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(occ.String()), "\n")
	if len(lines) != 3 || !strings.HasPrefix(lines[0], "#") {
		t.Fatalf("occupancy CSV shape wrong:\n%s", occ.String())
	}
	if lines[1] != "0.5000,0.0000" {
		t.Fatalf("occupancy row 0 = %q, want %q", lines[1], "0.5000,0.0000")
	}

	var util bytes.Buffer
	if err := r.WriteUtilizationCSV(&util); err != nil {
		t.Fatalf("WriteUtilizationCSV: %v", err)
	}
	lines = strings.Split(strings.TrimSpace(util.String()), "\n")
	// 40 flits / (100 cycles * 4 direction links) = 0.1 at node 3 (row 1, col 1).
	if lines[2] != "0.0000,0.1000" {
		t.Fatalf("utilization row 1 = %q, want %q", lines[2], "0.0000,0.1000")
	}
}

func TestHeatmapCSVRequiresInit(t *testing.T) {
	r := NewRegistry(0)
	var buf bytes.Buffer
	if err := r.WriteOccupancyCSV(&buf); err == nil {
		t.Fatal("uninitialised registry exported a heatmap")
	}
}

func TestWedgeSummary(t *testing.T) {
	r := NewRegistry(0)
	r.Init(2)
	r.At(0).ResHits = 3
	r.At(0).CreditStalls = 7
	r.At(2).ResMisses = 5
	r.At(2).Occ[topology.East].Sample(8, 8)

	s := r.WedgeSummary([]int{2})
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 2 {
		t.Fatalf("WedgeSummary lines = %d, want 2:\n%s", len(lines), s)
	}
	// Stalled router first, marked.
	if !strings.HasPrefix(lines[0], "router 2:") || !strings.Contains(lines[0], "STALLED") {
		t.Fatalf("stalled router not first/marked: %q", lines[0])
	}
	if !strings.Contains(lines[0], "occ[E 100%]") {
		t.Fatalf("occupancy missing from stalled line: %q", lines[0])
	}
	if !strings.Contains(lines[1], "credit-stalls 7") {
		t.Fatalf("counter missing: %q", lines[1])
	}
	// Inactive router 1 and 3 are omitted.
	if strings.Contains(s, "router 1:") || strings.Contains(s, "router 3:") {
		t.Fatalf("idle routers rendered:\n%s", s)
	}
	// Nil registry renders nothing rather than panicking.
	var nilReg *Registry
	if nilReg.WedgeSummary([]int{0}) != "" {
		t.Fatal("nil registry produced a summary")
	}
}

func TestProbeTracesThroughTracer(t *testing.T) {
	tr := trace.New(64)
	p := &Probe{Tracer: tr}
	p.Inject(5, 0, 1, 0)
	p.Route(6, 0, 2, 1)
	p.ReserveHit(7, 0, 2, 1, 9)
	p.Late(8, 1, 0, 1, 0)
	p.Traverse(9, 0, 2, 1, 0)
	p.Eject(12, 1, 1, 0)
	p.Retry(20, 0, 1, 1)
	p.Wedge(30)
	evs := tr.Events()
	want := []trace.Kind{
		trace.KindInject, trace.KindRoute, trace.KindReserve, trace.KindPark,
		trace.KindTraverse, trace.KindEject, trace.KindRetry, trace.KindWedge,
	}
	if len(evs) != len(want) {
		t.Fatalf("recorded %d events, want %d", len(evs), len(want))
	}
	for i, k := range want {
		if evs[i].Kind != k {
			t.Errorf("event %d kind = %v, want %v", i, evs[i].Kind, k)
		}
	}
	if evs[2].Arg != 9 {
		t.Errorf("reserve departure arg = %d, want 9", evs[2].Arg)
	}
}

func TestRegistryClone(t *testing.T) {
	r := NewRegistry(32)
	r.Init(2)
	r.Cycles = 50
	r.At(1).ResHits = 7
	r.At(1).Occ[topology.East].Sample(2, 8)

	c := (&Probe{Reg: r}).Snapshot(50).Reg
	if c.Epoch != 32 || c.Cycles != 50 || c.Nodes[1].ResHits != 7 {
		t.Fatalf("clone lost state: %+v", c)
	}
	// Mutating the original must not reach the clone.
	r.At(1).ResHits = 99
	r.At(1).Occ[topology.East].Sample(8, 8)
	if c.Nodes[1].ResHits != 7 || c.Nodes[1].Occ[topology.East].Samples != 1 {
		t.Fatal("clone shares node storage with the original")
	}
	if s := (*Probe)(nil).Snapshot(50); s != (Snapshot{}) {
		t.Fatalf("nil probe snapshot = %+v, want empty", s)
	}
}

func TestRegistryMerge(t *testing.T) {
	a := NewRegistry(0)
	a.Init(2)
	a.Cycles = 100
	a.At(1).ResHits = 3
	a.At(1).Occ[topology.East].Sample(2, 8)

	b := NewRegistry(0)
	b.Init(2)
	b.Cycles = 60
	b.At(1).ResHits = 4
	b.At(1).Injected = 10
	b.At(1).Occ[topology.East].Sample(6, 8)
	b.At(1).Occ[topology.East].Sample(4, 8)

	a.Merge(b)
	if a.Cycles != 160 {
		t.Fatalf("merged cycles = %d, want 160", a.Cycles)
	}
	n := &a.Nodes[1]
	if n.ResHits != 7 || n.Injected != 10 {
		t.Fatalf("merged counters wrong: hits=%d inj=%d", n.ResHits, n.Injected)
	}
	g := &n.Occ[topology.East]
	if g.Samples != 3 || g.Sum != 12 || g.Max != 6 || g.Cap != 8 {
		t.Fatalf("merged gauge wrong: %+v", g)
	}
	// Merging a larger registry grows the destination.
	big := NewRegistry(0)
	big.Init(4)
	big.At(15).Ejected = 5
	a.Merge(big)
	if len(a.Nodes) != 16 || a.Nodes[15].Ejected != 5 || a.Nodes[1].ResHits != 7 {
		t.Fatalf("merge with larger registry lost state: len=%d", len(a.Nodes))
	}
	// Nil operands are no-ops, not panics.
	a.Merge(nil)
	var nilReg *Registry
	nilReg.Merge(a)
}

// TestCounterListCoversEveryField holds the one counter list to the struct:
// every int64 field of NodeMetrics is reached by exactly one entry, so a
// counter cannot be counted and then missing from the merge or the exposition
// (as Corrupt was from /metrics).
func TestCounterListCoversEveryField(t *testing.T) {
	var n NodeMetrics
	v := reflect.ValueOf(&n).Elem()
	fields := 0
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		if f.Kind() != reflect.Int64 {
			continue
		}
		fields++
		entries := 0
		for _, c := range counters {
			if c.at(&n) == f.Addr().Interface().(*int64) {
				entries++
			}
		}
		if entries != 1 {
			t.Errorf("NodeMetrics.%s is reached by %d entries of the counter list, want 1", v.Type().Field(i).Name, entries)
		}
	}
	if fields != len(counters) {
		t.Errorf("counter list has %d entries for %d int64 fields", len(counters), fields)
	}
}
