package experiment

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"frfc/internal/noc"
	"frfc/internal/sim"
	"frfc/internal/traffic"
)

// presets is the named-configuration vocabulary every front end shares: the
// paper's FR and VC configurations and one representative of each baseline of
// its lineage. Under leading control FR6 is FR6-lead1, the paper's Figure 9
// configuration.
var presets = []struct {
	name  string
	build func(w Wiring, pktLen int) Spec
}{
	{"FR6", func(w Wiring, pktLen int) Spec {
		if w == LeadingControl {
			return FRLead(1, pktLen)
		}
		return FR6(w, pktLen)
	}},
	{"FR13", FR13},
	{"VC8", VC8},
	{"VC16", VC16},
	{"VC32", VC32},
	{"WH", func(w Wiring, pktLen int) Spec { return WormholeSpec("WH8", w, 8, pktLen) }},
	{"SAF", func(w Wiring, pktLen int) Spec { return PacketSwitchSpec("SAF2", StoreForward, w, 2, pktLen) }},
	{"VCT", func(w Wiring, pktLen int) Spec { return PacketSwitchSpec("VCT2", CutThrough, w, 2, pktLen) }},
	{"CS", func(w Wiring, pktLen int) Spec { return CircuitSpec("CS", w, pktLen) }},
}

// ConfigNames lists the names Named resolves, as flag help, error text and
// docs/service.md print them: the presets, then FR6-leadN — FR6 under leading
// control with a control lead of N cycles, 0 <= N <= its 32-cycle horizon,
// resolved under leading wiring only.
var ConfigNames = func() string {
	var b strings.Builder
	for _, p := range presets {
		b.WriteString(p.name + ", ")
	}
	return b.String() + "FR6-leadN"
}()

// GridError rejects a configuration name or a Grid. Field, when set, is the
// name the offending field's CLI flag and JSON key share, so a command line
// reports it as "-" + Error().
type GridError struct {
	Field  string
	Reason string
}

func (e *GridError) Error() string {
	if e.Field == "" {
		return e.Reason
	}
	return e.Field + " " + e.Reason
}

func gridErr(field, format string, a ...any) error {
	return &GridError{Field: field, Reason: fmt.Sprintf(format, a...)}
}

// ParseWiring resolves the wiring vocabulary: "fast" (or empty) and "leading".
func ParseWiring(name string) (Wiring, error) {
	switch name {
	case "", "fast":
		return FastControl, nil
	case "leading":
		return LeadingControl, nil
	}
	return "", gridErr("", "unknown wiring %q (want fast or leading)", name)
}

// ParsePattern resolves the traffic-pattern vocabulary of Spec.Pattern:
// "uniform" (or empty), "transpose", "bitcomp", "tornado", "neighbor",
// "bitrev" and "shuffle".
func ParsePattern(name string) (traffic.Pattern, error) {
	switch name {
	case "uniform", "":
		return traffic.Uniform{}, nil
	case "transpose":
		return traffic.Transpose{}, nil
	case "bitcomp":
		return traffic.BitComplement{}, nil
	case "tornado":
		return traffic.Tornado{}, nil
	case "neighbor":
		return traffic.Neighbor{}, nil
	case "bitrev":
		return traffic.BitReverse{}, nil
	case "shuffle":
		return traffic.Shuffle{}, nil
	}
	return nil, gridErr("pattern", "%q is unknown (want uniform, transpose, bitcomp, tornado, neighbor, bitrev or shuffle)", name)
}

// Named resolves one name of the ConfigNames vocabulary to its spec under the
// given wiring and packet length. It is the only resolver: cmd/frsim,
// cmd/sweep and the campaign service all hash and run what it returns.
func Named(name string, w Wiring, pktLen int) (Spec, error) {
	if lead, ok := strings.CutPrefix(name, "FR6-lead"); ok {
		n, err := strconv.Atoi(lead)
		if err != nil || n < 0 || strconv.Itoa(n) != lead {
			return Spec{}, gridErr("", "bad lead in %q (want FR6-leadN with an integer N >= 0)", name)
		}
		if w != LeadingControl {
			return Spec{}, gridErr("wiring", "must be leading to run %s, whose control flits lead their data (got %s)", name, w)
		}
		s := FRLead(sim.Cycle(n), pktLen)
		if s.FR.LeadCycles > s.FR.Horizon {
			return Spec{}, gridErr("", "lead in %q exceeds the %d-cycle reservation horizon (want FR6-leadN with 0 <= N <= %d)", name, s.FR.Horizon, s.FR.Horizon)
		}
		return s, nil
	}
	for _, p := range presets {
		if p.name == name {
			return p.build(w, pktLen), nil
		}
	}
	return Spec{}, gridErr("", "unknown config %q (%s)", name, ConfigNames)
}

// CheckRouting reports whether the named routing algorithm exists and is
// implemented for the flow, by name alone — what NewNetwork would otherwise
// discover by panicking.
func CheckRouting(name string, s Spec) error {
	switch name {
	case "", "xy":
		return nil
	case "yx", "table":
		if s.Flow != FlitReservation {
			return gridErr("", "routing %q is implemented for %s configs only, not %s (%s)", name, FlitReservation, s.Name, s.Flow)
		}
		return nil
	}
	return gridErr("", "unknown routing %q (want xy, yx or table)", name)
}

// CheckOption reports whether the spec's flow has a model of the command-line
// option name set to value, where NewNetwork would otherwise panic or the flow
// ignore it: the fault, chaos, retry and end-to-end options and the
// flit-reservation router's fields (buffers, ctrlvcs, horizon, leads) exist
// under flit reservation only, the virtual-channel router's fields (vcs,
// bufpervc) under virtual channels only, and the bit-error options under both.
// Any other option passes.
func CheckOption(name, value string, s Spec) error {
	var flows string
	switch name {
	case "ber", "crc-bits":
		if s.Flow == FlitReservation || s.Flow == VirtualChannel {
			return nil
		}
		flows = fmt.Sprintf("%s and %s", FlitReservation, VirtualChannel)
	case "scenario", "chaos", "retry", "e2e-check", "buffers", "ctrlvcs", "horizon", "leads":
		if s.Flow == FlitReservation {
			return nil
		}
		flows = string(FlitReservation)
	case "vcs", "bufpervc":
		if s.Flow == VirtualChannel {
			return nil
		}
		flows = string(VirtualChannel)
	default:
		return nil
	}
	return gridErr(name, "%q is implemented for %s configs only, not %s (%s)", value, flows, s.Name, s.Flow)
}

// Grid is a load grid over named configurations — what one cmd/sweep
// invocation, one campaign request or one cmd/frsim run describes. It is the
// only place names become specs and from/to/step becomes loads, so a grid
// expands to the same specs and the same float64 loads, and therefore the same
// job hashes and stored bytes, whichever front end built it. Every method
// validates what it reads and reports a *GridError; none constructs a network.
type Grid struct {
	// Configs are names of the ConfigNames vocabulary (surrounding blanks
	// ignored); Wiring is "fast" (or empty) or "leading"; PacketLen is the
	// packet length in data flits, 0 meaning 5.
	Configs   []string
	Wiring    string
	PacketLen int

	// Loads is the explicit offered-load grid, fractions of capacity in
	// (0,2]. When empty, From/To/Step expand one.
	Loads          []float64
	From, To, Step float64

	// Sample and Warmup scale the measurement protocol and are set
	// together; 0 keeps the spec defaults. A nonzero Seed overrides the RNG
	// seed, a non-empty Routing names the routing algorithm (flit-reservation
	// configs only) and Check arms the invariant checker.
	Sample, Warmup int
	Seed           uint64
	Routing        string
	Check          bool
}

// steps validates From/To/Step and reports the trip count of LoadPoints'
// accumulation: l = From + k*Step while l <= To + 1e-9.
func (g Grid) steps() (float64, error) {
	switch {
	case !(g.Step > 0):
		return 0, gridErr("step", "must be > 0 (got %g)", g.Step)
	case !(g.From > 0):
		return 0, gridErr("from", "must be > 0 (got %g)", g.From)
	case !(g.From <= g.To):
		return 0, gridErr("from", "(%g) must not exceed to (%g)", g.From, g.To)
	case g.To > 2:
		return 0, gridErr("to", "must be <= 2 (got %g)", g.To)
	}
	return math.Floor((g.To+1e-9-g.From)/g.Step) + 1, nil
}

// Count is the number of (config, load) points the grid expands to, by
// arithmetic alone: admission control checks it against its caps before
// anything is materialized, so rejecting an absurd from/to/step costs a
// handful of float ops, not the memory the grid claims. Counts beyond
// math.MaxInt32 report math.MaxInt32.
func (g Grid) Count() (int, error) {
	if len(g.Configs) == 0 {
		return 0, gridErr("configs", "must name at least one configuration")
	}
	loads := len(g.Loads)
	if loads == 0 {
		n, err := g.steps()
		if err != nil {
			return 0, err
		}
		if n > math.MaxInt32 {
			return math.MaxInt32, nil
		}
		loads = int(n)
	}
	total := loads * len(g.Configs)
	if total < 0 || total/loads != len(g.Configs) {
		return math.MaxInt32, nil // overflow: report "huge", let the cap reject it
	}
	return total, nil
}

// LoadPoints returns the grid's offered loads: Loads when given, else the
// accumulation of Step from From through To. The float64 values of the
// accumulation are what job hashes digest, which is why there is one loop. A
// Step so small that the accumulation would pass 1<<20 loads — or never
// advance at all — is refused before anything is accumulated.
func (g Grid) LoadPoints() ([]float64, error) {
	loads := g.Loads
	if len(loads) == 0 {
		n, err := g.steps()
		if err != nil {
			return nil, err
		}
		if n > 1<<20 {
			return nil, gridErr("step", "(%g) expands to %g loads, more than a grid holds", g.Step, n)
		}
		loads = make([]float64, 0, int(n))
		for l := g.From; l <= g.To+1e-9; l += g.Step {
			loads = append(loads, l)
		}
	}
	for _, l := range loads {
		if !(l > 0 && l <= 2) {
			return nil, gridErr("load", "must be in (0,2] (got %g)", l)
		}
	}
	return loads, nil
}

// Specs resolves every config through Named and applies the grid's
// refinements, in Configs order.
func (g Grid) Specs() ([]Spec, error) {
	if len(g.Configs) == 0 {
		return nil, gridErr("configs", "must name at least one configuration")
	}
	w, err := ParseWiring(g.Wiring)
	if err != nil {
		return nil, err
	}
	pktLen := g.PacketLen
	if pktLen == 0 {
		pktLen = 5
	}
	switch {
	case pktLen < 1 || pktLen > noc.MaxLen:
		return nil, gridErr("pktlen", "must be in [1,%d] (got %d)", noc.MaxLen, pktLen)
	case g.Sample < 0 || g.Warmup < 0:
		return nil, gridErr("", "sample and warmup must be >= 0")
	case (g.Sample == 0) != (g.Warmup == 0):
		return nil, gridErr("", "sample and warmup must be set together")
	}
	specs := make([]Spec, 0, len(g.Configs))
	for _, name := range g.Configs {
		s, err := Named(strings.TrimSpace(name), w, pktLen)
		if err != nil {
			return nil, err
		}
		if err := CheckRouting(g.Routing, s); err != nil {
			return nil, err
		}
		if g.Sample > 0 {
			s = s.Scaled(g.Sample, sim.Cycle(g.Warmup))
		}
		if g.Seed != 0 {
			s.Seed = g.Seed
		}
		if g.Routing != "" {
			s.Routing = g.Routing
		}
		s.Check = g.Check
		specs = append(specs, s)
	}
	return specs, nil
}
