package noc

import (
	"testing"
	"testing/quick"

	"frfc/internal/sim"
)

func TestTypeFor(t *testing.T) {
	cases := []struct {
		seq, n int
		want   FlitType
	}{
		{0, 1, HeadTailFlit},
		{0, 5, HeadFlit},
		{2, 5, BodyFlit},
		{4, 5, TailFlit},
	}
	for _, c := range cases {
		if got := TypeFor(c.seq, c.n); got != c.want {
			t.Errorf("TypeFor(%d, %d) = %s, want %s", c.seq, c.n, got, c.want)
		}
	}
}

func TestFlitTypePredicates(t *testing.T) {
	if !HeadFlit.IsHead() || HeadFlit.IsTail() {
		t.Error("HeadFlit predicates wrong")
	}
	if !TailFlit.IsTail() || TailFlit.IsHead() {
		t.Error("TailFlit predicates wrong")
	}
	if !HeadTailFlit.IsHead() || !HeadTailFlit.IsTail() {
		t.Error("HeadTailFlit predicates wrong")
	}
	if BodyFlit.IsHead() || BodyFlit.IsTail() {
		t.Error("BodyFlit predicates wrong")
	}
}

func TestDataFlits(t *testing.T) {
	p := &Packet{ID: 7, Len: 5}
	flits := DataFlits(p)
	if len(flits) != 5 {
		t.Fatalf("got %d flits, want 5", len(flits))
	}
	for i, f := range flits {
		if int(f.Seq) != i || f.Packet != p || f.Type != TypeFor(i, 5) {
			t.Fatalf("flit %d malformed: %+v", i, f)
		}
	}
}

func TestControlFlitsHeadCarriesDestination(t *testing.T) {
	p := &Packet{ID: 1, Dst: 42, Len: 5}
	cfs := ControlFlits(p, 1)
	if len(cfs) != 5 {
		t.Fatalf("d=1, L=5: got %d control flits, want 5", len(cfs))
	}
	if cfs[0].Dst != 42 || !cfs[0].Type.IsHead() {
		t.Fatal("head control flit missing destination")
	}
	if !cfs[4].Type.IsTail() {
		t.Fatal("last control flit not a tail")
	}
}

// TestControlFlitsCoverEverySeqOnce: for any packet length and lead width,
// every data flit is led exactly once, in order, by at most d per flit.
func TestControlFlitsCoverEverySeqOnce(t *testing.T) {
	f := func(lRaw, dRaw uint8) bool {
		l := int(lRaw%40) + 1
		d := int(dRaw%6) + 1
		p := &Packet{Len: int32(l)}
		cfs := ControlFlits(p, d)
		next := 0
		for i, cf := range cfs {
			if len(cf.Leads) == 0 || len(cf.Leads) > d {
				return false
			}
			if cf.Type.IsHead() != (i == 0) || cf.Type.IsTail() != (i == len(cfs)-1) {
				return false
			}
			for _, le := range cf.Leads {
				if int(le.Seq) != next {
					return false
				}
				next++
			}
		}
		return next == l
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestControlFlitsRejectBadArgs(t *testing.T) {
	for _, fn := range []func(){
		func() { ControlFlits(&Packet{Len: 5}, 0) },
		func() { ControlFlits(&Packet{Len: 0}, 1) },
		func() { DataFlits(&Packet{Len: 0}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad packetize arguments did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestHooksNilSafe(t *testing.T) {
	var h *Hooks
	h.Delivered(&Packet{}, 0)
	h.Ejected(0)
	empty := &Hooks{}
	empty.Delivered(&Packet{}, 0)
	empty.Ejected(0)
}

func TestFlitStrings(t *testing.T) {
	p := &Packet{ID: 3, Len: 2}
	df := DataFlit{Packet: p, Seq: 1, Type: TailFlit}
	if df.String() == "" || (DataFlit{}).String() == "" {
		t.Error("DataFlit.String empty")
	}
	cf := ControlFlit{Packet: p, Type: HeadFlit, Leads: []LeadEntry{{Seq: 0, Arrival: sim.Cycle(9)}}}
	if cf.String() == "" || (ControlFlit{}).String() == "" {
		t.Error("ControlFlit.String empty")
	}
}
