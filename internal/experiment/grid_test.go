package experiment

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"frfc/internal/noc"
)

// TestNamedResolvesTheWholeVocabulary: every name ConfigNames prints resolves,
// to exactly the spec its constructor builds — what cmd/paperfigs' figure rows
// and every stored job hash rely on.
func TestNamedResolvesTheWholeVocabulary(t *testing.T) {
	for _, w := range []Wiring{FastControl, LeadingControl} {
		fr6 := FR6(w, 21)
		if w == LeadingControl {
			fr6 = FRLead(1, 21)
		}
		want := map[string]Spec{
			"FR6": fr6, "FR13": FR13(w, 21), "VC8": VC8(w, 21), "VC16": VC16(w, 21), "VC32": VC32(w, 21),
			"WH":        WormholeSpec("WH8", w, 8, 21),
			"SAF":       PacketSwitchSpec("SAF2", StoreForward, w, 2, 21),
			"VCT":       PacketSwitchSpec("VCT2", CutThrough, w, 2, 21),
			"CS":        CircuitSpec("CS", w, 21),
			"FR6-leadN": FRLead(4, 21),
		}
		for _, name := range strings.Split(ConfigNames, ", ") {
			got, err := Named(strings.Replace(name, "leadN", "lead4", 1), w, 21)
			if err != nil || !reflect.DeepEqual(got, want[name]) {
				t.Errorf("%s under %s: %+v, %v; want %+v", name, w, got, err, want[name])
			}
		}
		if len(want) != strings.Count(ConfigNames, ",")+1 {
			t.Errorf("ConfigNames %q lists a name this test does not cover", ConfigNames)
		}
	}
	for _, bad := range []string{"", "fr6", "FR6-lead", "FR6-lead2x", "FR6-lead-3", "FR6-lead+1", "FR6-lead01", "FR6-lead 1",
		"FR6-lead33", "FR6-lead9223372036854775807"} {
		var ge *GridError
		if _, err := Named(bad, FastControl, 5); !errors.As(err, &ge) {
			t.Errorf("Named(%q) = %v, want a *GridError", bad, err)
		}
	}
}

// TestLeadAtTheHorizonDelivers: FR6-lead32, the longest lead Named admits
// (its horizon), still injects and delivers its whole sample; a lead of 33
// found no injection cycle in the interface's table and delivered nothing.
func TestLeadAtTheHorizonDelivers(t *testing.T) {
	s, err := Named("FR6-lead32", LeadingControl, 5)
	if err != nil {
		t.Fatal(err)
	}
	if s.FR.LeadCycles != s.FR.Horizon {
		t.Fatalf("FR6-lead32: lead %d, horizon %d; want the lead at the horizon", s.FR.LeadCycles, s.FR.Horizon)
	}
	s.MeshRadix = 4
	s = s.Scaled(200, 500)
	if r := Run(s, 0.10); r.Saturated || r.SampledDelivered != r.SampleSize {
		t.Fatalf("FR6-lead32 at load 0.10 delivered %d of %d (saturated %v)", r.SampledDelivered, r.SampleSize, r.Saturated)
	}
}

// TestGridCountMatchesExpansion: the arithmetic count is the expansion's size,
// and what the grid refuses it refuses with the field named.
func TestGridCountMatchesExpansion(t *testing.T) {
	for _, g := range []Grid{
		{Configs: []string{"FR6"}, Loads: []float64{0.1, 2}},
		{Configs: []string{"FR6", " VC8 "}, From: 0.05, To: 0.95, Step: 0.05},
		{Configs: []string{"FR6", "WH", "CS"}, From: 0.02, To: 0.91, Step: 0.03},
		{Configs: []string{"FR6"}, From: 0.1, To: 0.9999, Step: 0.1},
	} {
		n, err := g.Count()
		loads, lerr := g.LoadPoints()
		specs, serr := g.Specs()
		if err != nil || lerr != nil || serr != nil || n != len(specs)*len(loads) {
			t.Errorf("%+v: count %d (%v), %d specs (%v) x %d loads (%v)", g, n, err, len(specs), serr, len(loads), lerr)
		}
	}
	for field, g := range map[string]Grid{
		"step":    {Configs: []string{"FR6"}, From: 0.1, To: 0.9},
		"from":    {Configs: []string{"FR6"}, From: 0.9, To: 0.1, Step: 0.1},
		"to":      {Configs: []string{"FR6"}, From: 0.1, To: 2.5, Step: 0.1},
		"configs": {Loads: []float64{0.2}},
	} {
		var ge *GridError
		if _, err := g.Count(); !errors.As(err, &ge) || ge.Field != field {
			t.Errorf("%+v: Count error %v, want a *GridError on %q", g, err, field)
		}
	}
	// A packet longer than a flit's 32-bit sequence number counts is refused
	// by name, not wrapped.
	for _, n := range []int{-1, noc.MaxLen + 1} {
		var ge *GridError
		g := Grid{Configs: []string{"FR6"}, Loads: []float64{0.2}, PacketLen: n}
		if _, err := g.Specs(); !errors.As(err, &ge) || ge.Field != "pktlen" {
			t.Errorf("packet length %d: Specs error %v, want a *GridError on pktlen", n, err)
		}
	}
	// A step that never advances the accumulation counts as huge and is
	// refused unexpanded, whether or not a job cap stands in front of it.
	stuck := Grid{Configs: []string{"FR6"}, From: 2, To: 2, Step: 1e-300}
	var ge *GridError
	if n, err := stuck.Count(); err != nil || n < 1<<30 {
		t.Errorf("stuck grid counts %d, %v", n, err)
	}
	if _, err := stuck.LoadPoints(); !errors.As(err, &ge) || ge.Field != "step" {
		t.Errorf("stuck grid expands: %v", err)
	}
}
