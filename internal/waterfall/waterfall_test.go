package waterfall

import (
	"bytes"
	"strings"
	"testing"

	"frfc/internal/trace"
)

func TestStageNamesMatchTraceSpans(t *testing.T) {
	// The tracer renders KindStage events by stage index without importing
	// this package; the two name tables must stay in lockstep.
	for s := Stage(0); s < NumStages; s++ {
		if got := trace.StageSpanName(int32(s)); got != s.String() {
			t.Errorf("stage %d: waterfall name %q, trace span name %q", s, s, got)
		}
	}
	if Stage(NumStages).String() == "" {
		t.Error("out-of-range stage must still render")
	}
}

func TestNilLedgerIsSafe(t *testing.T) {
	var l *Ledger
	l.InjectStart(1, 0, 0, 5)
	l.HeadWire(1, 0, 6)
	l.Arrive(1, 0, 8)
	l.Blocked(1, StageStall, 8)
	l.Depart(1, 0, 9, false)
	l.Eject(1, 0, 12)
	l.Delivered(1, 14)
	l.Drop(1)
	if l.Totals().Packets != 0 || l.Totals().Total != 0 || l.InFlight() != 0 {
		t.Error("nil ledger accumulated state")
	}
}

// TestLifecycleDecomposition hand-computes one packet's ledger: created 0,
// injection starts at 3 (queue 3), head on the wire at 5 (reserve 2), one
// router visited 8..12 with one arb mark and one stall mark (drift 2 more to
// stall), ejected at 16, delivered at 19.
func TestLifecycleDecomposition(t *testing.T) {
	l := New()
	l.Strict = true
	l.InjectStart(7, 0, 0, 3)
	l.HeadWire(7, 0, 5)
	l.Arrive(7, 0, 8) // link += 3
	l.Blocked(7, StageArb, 8)
	l.Blocked(7, StageArb, 8) // same-cycle duplicate must not double-charge
	l.Blocked(7, StageStall, 9)
	l.Depart(7, 0, 12, false) // residence 4, marks 2, drift 2 -> stall
	l.Eject(7, 0, 16)         // link += 4
	if l.InFlight() != 1 {
		t.Fatalf("in flight = %d, want 1", l.InFlight())
	}
	l.Delivered(7, 19)
	if l.Totals().Packets != 1 {
		t.Fatalf("packets = %d, want 1", l.Totals().Packets)
	}
	want := [NumStages]int64{
		StageQueue:   3,
		StageReserve: 2,
		StageArb:     1,
		StageStall:   3, // 1 mark + 2 drift
		StageLink:    7,
		StageDrain:   3,
	}
	if got := l.Totals().Stages(); got != want {
		t.Fatalf("stage totals %v, want %v", got, want)
	}
	if l.Totals().Total != 19 {
		t.Fatalf("total = %d, want 19", l.Totals().Total)
	}
}

// TestSchedResidence covers the flit-reservation attribution: the router
// charges its whole residence to sched at departure, and a zero-residence
// bypass charges nothing.
func TestSchedResidence(t *testing.T) {
	l := New()
	l.Strict = true
	l.InjectStart(1, 0, 0, 0)
	l.HeadWire(1, 0, 1)
	l.Arrive(1, 0, 5)
	l.Depart(1, 0, 5, true) // bypass: zero residence
	l.Arrive(1, 0, 9)
	l.Depart(1, 0, 11, true) // scheduled: 2 cycles wholesale
	l.Eject(1, 0, 14)
	l.Delivered(1, 14)
	st := l.Totals().Stages()
	if st[StageSched] != 2 {
		t.Errorf("sched = %d, want 2", st[StageSched])
	}
	if st[StageLink] != 11 {
		t.Errorf("link = %d, want 11", st[StageLink])
	}
}

// TestRetryResetFoldsIntoQueue models an end-to-end retry: the second
// attempt's InjectStart discards the first attempt's partial progress and
// re-bases everything since creation as queue time.
func TestRetryResetFoldsIntoQueue(t *testing.T) {
	l := New()
	l.Strict = true
	l.InjectStart(9, 0, 0, 2)
	l.HeadWire(9, 0, 3)
	l.Arrive(9, 0, 6)
	l.Blocked(9, StageStall, 6)
	// The attempt dies in flight; the source re-injects attempt 1 at 40.
	l.InjectStart(9, 1, 0, 40)
	l.HeadWire(9, 1, 41)
	l.Arrive(9, 1, 44)
	l.Depart(9, 1, 45, false)
	l.Eject(9, 1, 48)
	l.Delivered(9, 50)
	want := [NumStages]int64{
		StageQueue:   40,
		StageReserve: 1,
		StageStall:   1, // departure drift: residence 1, no marks
		StageLink:    6, // 41->44 and 45->48
		StageDrain:   2,
	}
	if got := l.Totals().Stages(); got != want {
		t.Fatalf("stage totals %v, want %v", got, want)
	}
	// Re-delivery of the same attempt must be idempotent via deletion.
	if l.InFlight() != 0 {
		t.Fatalf("in flight = %d, want 0", l.InFlight())
	}
}

func TestInjectStartIdempotentPerAttempt(t *testing.T) {
	l := New()
	l.InjectStart(3, 0, 0, 5)
	l.InjectStart(3, 0, 0, 9) // duplicate for the same attempt: first wins
	l.HeadWire(3, 0, 6)
	l.Eject(3, 0, 10)
	l.Delivered(3, 12)
	st := l.Totals().Stages()
	if st[StageQueue] != 5 || st[StageReserve] != 1 {
		t.Fatalf("queue=%d reserve=%d, want 5 and 1", st[StageQueue], st[StageReserve])
	}
}

func TestDropForgetsPacket(t *testing.T) {
	l := New()
	l.InjectStart(4, 0, 0, 1)
	l.Drop(4)
	if l.InFlight() != 0 || l.Totals().Packets != 0 {
		t.Error("dropped packet still on the books")
	}
}

func TestStrictPanicsOnOvermark(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic when marks exceed residence under Strict")
		}
	}()
	l := New()
	l.Strict = true
	l.InjectStart(5, 0, 0, 0)
	l.HeadWire(5, 0, 1)
	l.Arrive(5, 0, 3)
	l.Blocked(5, StageStall, 3)
	l.Blocked(5, StageStall, 4)
	l.Depart(5, 0, 4, false) // residence 1, marks 2
}

func TestViewAndWriters(t *testing.T) {
	l := New()
	l.InjectStart(1, 0, 0, 2)
	l.HeadWire(1, 0, 4)
	l.Eject(1, 0, 10)
	l.Delivered(1, 12)
	v := l.View()
	if v.Packets != 1 || v.TotalCycles != 12 {
		t.Fatalf("view %+v", v)
	}
	if len(v.Stages) != int(NumStages) {
		t.Fatalf("view has %d stages", len(v.Stages))
	}
	if s := l.Summary(); !strings.Contains(s, "queue") || !strings.Contains(s, "drain") {
		t.Errorf("summary %q missing stages", s)
	}
	var buf bytes.Buffer
	if err := l.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"packets": 1`, `"stages"`, `"queue"`, `"ci95"`} {
		if !strings.Contains(buf.String(), key) {
			t.Errorf("JSON missing %s:\n%s", key, buf.String())
		}
	}
	buf.Reset()
	if err := l.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != int(NumStages)+1 {
		t.Errorf("CSV has %d lines, want %d", lines, int(NumStages)+1)
	}
	buf.Reset()
	v.WritePrometheus(&buf)
	for _, key := range []string{"frfc_waterfall_packets 1", `frfc_latency_stage_cycles_total{stage="queue"}`, "frfc_latency_stage_mean"} {
		if !strings.Contains(buf.String(), key) {
			t.Errorf("prometheus output missing %s:\n%s", key, buf.String())
		}
	}
}

func TestViewFromTotals(t *testing.T) {
	v := Totals{Packets: 4, Total: 40, Link: 30, Drain: 10}.View()
	if v.MeanLatency != 10 {
		t.Errorf("mean %v, want 10", v.MeanLatency)
	}
	for _, sv := range v.Stages {
		if sv.Stage == "link" && sv.Share != 0.75 {
			t.Errorf("link share %v, want 0.75", sv.Share)
		}
	}
}
