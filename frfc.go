// Package frfc is a cycle-accurate flit-level simulator of flit-reservation
// flow control (Peh & Dally, HPCA 2000) and the baselines of its lineage —
// virtual-channel, wormhole, store-and-forward, virtual cut-through, and
// circuit switching — on a k-ary 2-mesh.
//
// In flit-reservation flow control, small control flits traverse a separate
// control network ahead of the wide data flits, reserving buffers and channel
// bandwidth cycle by cycle; data flits then move through the network on a
// pre-arranged schedule, with zero buffer turnaround and no per-hop routing
// or arbitration latency. The package exposes the paper's named experimental
// configurations (FR6, FR13, VC8, VC16, VC32), its two physical wirings
// (fast control wires; leading control on uniform wires), a measurement
// harness implementing the paper's protocol, and the analytic storage and
// bandwidth overhead models of its Tables 1 and 2.
//
// A minimal use:
//
//	spec := frfc.FR6(frfc.FastControl, 5)
//	result := frfc.Run(spec, 0.50) // offered load: 50% of capacity
//	fmt.Println(result.AvgLatency)
package frfc

import (
	"errors"
	"fmt"

	"frfc/internal/core"
	"frfc/internal/experiment"
	"frfc/internal/sim"
	"frfc/internal/traffic"
	"frfc/internal/vcrouter"
)

// Wiring selects the paper's two physical configurations.
type Wiring string

// Wirings. FastControl models on-chip control and credit wires four times
// faster than the data wires (control/credit links 1 cycle, data links 4).
// LeadingControl models uniform 1-cycle wires with control flits injected
// ahead of their data flits.
const (
	FastControl    Wiring = Wiring(experiment.FastControl)
	LeadingControl Wiring = Wiring(experiment.LeadingControl)
)

// Spec is a fully described network configuration plus measurement protocol.
// Build one with a preset constructor (FR6, VC8, ...) or Custom, refine it
// with the With* methods, and pass it to Run, Sweep, or SaturationThroughput.
// Spec values are immutable; the With* methods return modified copies.
type Spec struct {
	inner experiment.Spec
}

// Name reports the configuration's display name.
func (s Spec) Name() string { return s.inner.Name }

// FR6 is the paper's 6-buffer flit-reservation configuration (2 control VCs
// of 3 flits, scheduling horizon 32), storage-matched to VC8.
func FR6(w Wiring, packetLen int) Spec {
	return Spec{inner: experiment.FR6(experiment.Wiring(w), packetLen)}
}

// FR13 is the paper's 13-buffer flit-reservation configuration (4 control
// VCs of 3 flits), storage-matched to VC16.
func FR13(w Wiring, packetLen int) Spec {
	return Spec{inner: experiment.FR13(experiment.Wiring(w), packetLen)}
}

// FRLead is FR6 under leading control with control flits injected lead
// cycles ahead of their data flits (Figure 8 uses leads of 1, 2 and 4).
func FRLead(lead int, packetLen int) Spec {
	return Spec{inner: experiment.FRLead(sim.Cycle(lead), packetLen)}
}

// VC8 is virtual-channel flow control with 8 buffers per input (2 VCs × 4).
func VC8(w Wiring, packetLen int) Spec {
	return Spec{inner: experiment.VC8(experiment.Wiring(w), packetLen)}
}

// VC16 is virtual-channel flow control with 16 buffers per input (4 VCs × 4).
func VC16(w Wiring, packetLen int) Spec {
	return Spec{inner: experiment.VC16(experiment.Wiring(w), packetLen)}
}

// VC32 is virtual-channel flow control with 32 buffers per input (8 VCs × 4).
func VC32(w Wiring, packetLen int) Spec {
	return Spec{inner: experiment.VC32(experiment.Wiring(w), packetLen)}
}

// WormholeSpec is wormhole flow control [DalSei86] with the given flit
// buffer depth per input — the pre-virtual-channel baseline of the paper's
// related-work lineage.
func WormholeSpec(w Wiring, bufferDepth, packetLen int) Spec {
	return Spec{inner: experiment.WormholeSpec(fmt.Sprintf("WH%d", bufferDepth), experiment.Wiring(w), bufferDepth, packetLen)}
}

// StoreAndForwardSpec is store-and-forward flow control with the given
// packet buffers per input: whole packets are received before being
// forwarded, the oldest method in the paper's Section 2 lineage.
func StoreAndForwardSpec(w Wiring, packetBuffers, packetLen int) Spec {
	return Spec{inner: experiment.PacketSwitchSpec(fmt.Sprintf("SAF%d", packetBuffers), experiment.StoreForward, experiment.Wiring(w), packetBuffers, packetLen)}
}

// CutThroughSpec is virtual cut-through flow control [KerKle79]: forwarding
// begins as soon as the header arrives, but buffers and channels are still
// allocated in packet-sized units.
func CutThroughSpec(w Wiring, packetBuffers, packetLen int) Spec {
	return Spec{inner: experiment.PacketSwitchSpec(fmt.Sprintf("VCT%d", packetBuffers), experiment.CutThrough, experiment.Wiring(w), packetBuffers, packetLen)}
}

// CircuitSpec is circuit switching (the substrate of the wave-switching
// hybrid the paper reviews): a probe on fast control wires reserves an
// exclusive path, the message streams over it unbuffered, and the tail tears
// it down. Strong on very long messages, weak on short ones — the setup must
// amortize.
func CircuitSpec(w Wiring, packetLen int) Spec {
	return Spec{inner: experiment.CircuitSpec("CS", experiment.Wiring(w), packetLen)}
}

// ConfigNames lists the named configurations a Grid resolves, as flag help
// prints them.
var ConfigNames = experiment.ConfigNames

// ParseWiring resolves the wiring vocabulary of the command lines and the
// campaign service: "fast" (or empty) and "leading".
func ParseWiring(name string) (Wiring, error) {
	w, err := experiment.ParseWiring(name)
	return Wiring(w), err
}

// Grid is a load grid over named configurations — what one cmd/sweep
// invocation, one campaign request or one cmd/frsim run describes: Configs
// from the ConfigNames vocabulary under a Wiring ("fast", "leading") and
// PacketLen; offered Loads, or the From/To/Step that expand to them; and the
// Sample/Warmup/Seed/Routing/Check refinements every spec receives. It is the
// one place names become specs and from/to/step becomes loads, so whichever
// front end built a grid, it expands to the same job hashes.
type Grid experiment.Grid

// Expand validates the grid and returns one refined spec per config, in
// Configs order, and the offered loads. Every rejection — an unknown name, a
// malformed FR6-leadN, a load outside (0,2], a routing algorithm the flow does
// not implement — is found by name, before anything is built. The fields are
// named as the command lines' flags, so a rejection that names one reads as
// that flag: "-step must be > 0 (got 0)".
func (g Grid) Expand() ([]Spec, []float64, error) {
	loads, err := experiment.Grid(g).LoadPoints()
	var inner []experiment.Spec
	if err == nil {
		inner, err = experiment.Grid(g).Specs()
	}
	if err != nil {
		var ge *experiment.GridError
		if errors.As(err, &ge) && ge.Field != "" {
			err = fmt.Errorf("-%w", err)
		}
		return nil, nil, err
	}
	specs := make([]Spec, len(inner))
	for i, s := range inner {
		specs[i] = Spec{inner: s}
	}
	return specs, loads, nil
}

// Options describes a custom configuration for Custom. Zero fields take the
// paper's defaults.
type Options struct {
	// FlitReservation selects the flow-control method: true for flit
	// reservation, false for virtual channels.
	FlitReservation bool

	MeshRadix int // k for the k×k mesh (default 8)
	PacketLen int // data flits per packet (default 5)

	// Flit-reservation knobs.
	DataBuffers       int // pooled data buffers per input (default 6)
	CtrlVCs           int // control virtual channels (default 2)
	CtrlBufPerVC      int // control buffers per VC (default 3)
	Horizon           int // scheduling horizon in cycles (default 32)
	LeadsPerCtrl      int // data flits led per control flit (default 1)
	CtrlFlitsPerCycle int // control link bandwidth (default 2)
	LeadCycles        int // control lead at injection (default 0)
	AllOrNothing      bool
	// TrackEagerTransfers runs the Figure 10 shadow ledger; read the
	// result with EagerTransfers after a Run.
	TrackEagerTransfers bool
	// DataFaultRate destroys each inter-router data flit transmission
	// with this probability, exercising the Section 5 error-recovery
	// behavior (dropped flits, consistent tables, lost-packet detection
	// at the destination). Flit-reservation configurations only.
	DataFaultRate float64
	// CtrlFaultRate corrupts each inter-router control flit transmission
	// with this probability. Corrupted control flits are recovered by
	// modeled link-level retransmission: they arrive late (two extra link
	// traversals per corruption), never lost. Must be below 1.
	CtrlFaultRate float64
	// RetryLimit enables end-to-end packet recovery: when a destination
	// detects a lost packet it notifies the source, which re-injects the
	// packet up to RetryLimit times before abandoning it. 0 (default)
	// disables retry — losses are detected but final.
	RetryLimit int
	// RetryBackoffBase spaces retries exponentially: attempt n is
	// re-offered base<<n cycles after its loss notification (default 64).
	RetryBackoffBase int
	// RetryTimeout, when nonzero, also re-offers a packet whose fate is
	// unknown this many cycles after its injection completed — recovery
	// insurance against a lost notification.
	RetryTimeout int
	// NackLatency is the modeled delay of a delivery/loss notification
	// from destination back to source (default 16).
	NackLatency int
	// WatchdogCycles, when nonzero, arms a no-progress watchdog: if no
	// flit moves for this many cycles while packets are in flight and no
	// recovery action is pending, a diagnostic snapshot of every router
	// and interface is produced (and the run is flagged).
	WatchdogCycles int

	// BER is the per-flit bit-error probability on inter-router links —
	// the corruption mode distinct from loss: the flit is delivered on
	// time with wrong payload, and only the modeled hop CRC or the
	// end-to-end check can notice. Works for both flow-control methods.
	BER float64
	// CrcBits is the modeled per-hop CRC width c: a corrupted flit is
	// detected with probability 1 - 2^-c. 0 defaults to 16 when bit errors
	// are in play; negative disables hop detection so every corruption
	// escapes to the destination.
	CrcBits int
	// E2ECheck arms the end-to-end payload checksum at the destination
	// interface: a packet that completes with corrupted payload is treated
	// as lost — NACKed and retried under RetryLimit — instead of delivered.
	// Flit-reservation configurations only.
	E2ECheck bool
	// ReclaimCycles bounds how long a parked data flit may wait for a
	// reservation that never materializes (the wake of an escaped-corrupt
	// control flit) before the router reclaims its buffer into the loss
	// path. 0 defaults to 8× the scheduling horizon when bit errors are in
	// play. Flit-reservation configurations only.
	ReclaimCycles int
	// ChaosIntensity, in (0, 1], expands a deterministic chaos campaign —
	// composed soft loss, background bit errors, link flaps, corruption
	// spikes and (at >= 0.75) router kills — and installs it into the run,
	// overwriting Scenario and the fault rates. The plan is a pure function
	// of (intensity, horizon, seed). Flit-reservation configurations only.
	ChaosIntensity float64
	// ChaosHorizon is the cycle window chaos events land in (0 takes the
	// default); ChaosSeed drives the plan generator.
	ChaosHorizon int
	ChaosSeed    uint64

	// Virtual-channel knobs.
	VCs        int // virtual channels per physical channel (default 2)
	BufPerVC   int // flit queue depth per VC (default 4)
	SharedPool bool

	// Wiring (cycles; defaults depend on Wiring).
	Wiring          Wiring
	DataLinkLatency int
	CtrlLinkLatency int
	CreditLatency   int
	LocalLatency    int

	// Traffic pattern: "uniform" (default), "transpose", "bitcomp",
	// "tornado", "neighbor", "bitrev", "shuffle".
	Pattern string
	// Bernoulli switches injection from the paper's constant-rate source
	// to a Bernoulli process.
	Bernoulli bool

	// Routing selects the routing algorithm: "xy" (default), "yx", or
	// "table" (fault-aware per-node lookup tables, recomputed on topology
	// events). Flit-reservation configurations only.
	Routing string
	// Scenario is a hard-fault schedule in the scenario grammar —
	// semicolon-separated events "down A-B @C", "up A-B @C", "kill N @C" —
	// applied deterministically mid-run. Scenarios force table routing.
	// Flit-reservation configurations only.
	Scenario string
	// Check runs the per-cycle invariant checker (credit conservation,
	// table accounting, severed-link silence); it panics on first
	// violation. Observation-only: results are unchanged.
	Check bool
}

// Custom builds a Spec from explicit options. It returns an error for
// unknown pattern and routing names, a routing algorithm the flow does not
// implement and a malformed scenario; structural misconfiguration (e.g. zero
// buffers) panics inside Run, as it indicates a programming error.
func Custom(name string, o Options) (Spec, error) {
	w := experiment.Wiring(o.Wiring)
	if w == "" {
		w = experiment.FastControl
	}
	var inner experiment.Spec
	if o.FlitReservation {
		inner = experiment.FR6(w, orDefault(o.PacketLen, 5))
		inner.FR = applyFR(inner.FR, o)
	} else {
		inner = experiment.VC8(w, orDefault(o.PacketLen, 5))
		inner.VC = applyVC(inner.VC, o)
	}
	inner.Name = name
	if o.MeshRadix != 0 {
		inner.MeshRadix = o.MeshRadix
	}
	inner.Bernoulli = o.Bernoulli
	if o.Pattern != "" {
		p, err := patternByName(o.Pattern)
		if err != nil {
			return Spec{}, err
		}
		inner.Pattern = p
	}
	if err := experiment.CheckRouting(o.Routing, inner); err != nil {
		return Spec{}, err
	}
	inner.Routing = o.Routing
	inner.Check = o.Check
	if o.Scenario != "" {
		events, err := core.ParseScenario(o.Scenario)
		if err != nil {
			return Spec{}, err
		}
		inner.Faults = events
	}
	inner.ChaosIntensity = o.ChaosIntensity
	inner.ChaosHorizon = sim.Cycle(o.ChaosHorizon)
	inner.ChaosSeed = o.ChaosSeed
	return Spec{inner: inner}, nil
}

func applyFR(cfg core.Config, o Options) core.Config {
	if o.DataBuffers != 0 {
		cfg.DataBuffers = o.DataBuffers
	}
	if o.CtrlVCs != 0 {
		cfg.CtrlVCs = o.CtrlVCs
	}
	if o.CtrlBufPerVC != 0 {
		cfg.CtrlBufPerVC = o.CtrlBufPerVC
	}
	if o.Horizon != 0 {
		cfg.Horizon = sim.Cycle(o.Horizon)
	}
	if o.LeadsPerCtrl != 0 {
		cfg.LeadsPerCtrl = o.LeadsPerCtrl
	}
	if o.CtrlFlitsPerCycle != 0 {
		cfg.CtrlFlitsPerCycle = o.CtrlFlitsPerCycle
	}
	if o.LeadCycles != 0 {
		cfg.LeadCycles = sim.Cycle(o.LeadCycles)
	}
	if o.DataLinkLatency != 0 {
		cfg.DataLinkLatency = sim.Cycle(o.DataLinkLatency)
	}
	if o.CtrlLinkLatency != 0 {
		cfg.CtrlLinkLatency = sim.Cycle(o.CtrlLinkLatency)
	}
	if o.CreditLatency != 0 {
		cfg.CreditLatency = sim.Cycle(o.CreditLatency)
	}
	if o.LocalLatency != 0 {
		cfg.LocalLatency = sim.Cycle(o.LocalLatency)
	}
	cfg.AllOrNothing = o.AllOrNothing
	cfg.TrackEagerTransfers = o.TrackEagerTransfers
	cfg.DataFaultRate = o.DataFaultRate
	cfg.CtrlFaultRate = o.CtrlFaultRate
	cfg.RetryLimit = o.RetryLimit
	cfg.RetryBackoffBase = sim.Cycle(o.RetryBackoffBase)
	cfg.RetryTimeout = sim.Cycle(o.RetryTimeout)
	cfg.NackLatency = sim.Cycle(o.NackLatency)
	cfg.WatchdogCycles = sim.Cycle(o.WatchdogCycles)
	cfg.BER = o.BER
	cfg.CrcBits = o.CrcBits
	cfg.E2ECheck = o.E2ECheck
	cfg.ReclaimCycles = sim.Cycle(o.ReclaimCycles)
	return cfg
}

func applyVC(cfg vcrouter.Config, o Options) vcrouter.Config {
	if o.VCs != 0 {
		cfg.NumVCs = o.VCs
	}
	if o.BufPerVC != 0 {
		cfg.BufPerVC = o.BufPerVC
	}
	cfg.SharedPool = o.SharedPool
	cfg.BER = o.BER
	cfg.CrcBits = o.CrcBits
	if o.DataLinkLatency != 0 {
		cfg.LinkLatency = sim.Cycle(o.DataLinkLatency)
	}
	if o.CreditLatency != 0 {
		cfg.CreditLatency = sim.Cycle(o.CreditLatency)
	}
	if o.LocalLatency != 0 {
		cfg.LocalLatency = sim.Cycle(o.LocalLatency)
	}
	return cfg
}

func orDefault(v, def int) int {
	if v == 0 {
		return def
	}
	return v
}

// patternByName resolves a traffic-pattern name for Custom.
func patternByName(name string) (traffic.Pattern, error) {
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
	default:
		return nil, fmt.Errorf("frfc: unknown traffic pattern %q", name)
	}
}

// WithSeed returns the spec with a different random seed.
func (s Spec) WithSeed(seed uint64) Spec {
	s.inner.Seed = seed
	return s
}

// WithSampling returns the spec with the given measurement sample size and
// minimum warm-up length (cycles).
func (s Spec) WithSampling(samplePackets int, warmupCycles int) Spec {
	s.inner = s.inner.Scaled(samplePackets, sim.Cycle(warmupCycles))
	return s
}

// PaperScale returns the spec with the paper's full measurement protocol:
// at least 10,000 warm-up cycles and 100,000 sampled packets.
func (s Spec) PaperScale() Spec {
	s.inner = s.inner.PaperScale()
	return s
}

// WithMeshRadix returns the spec on a k×k mesh.
func (s Spec) WithMeshRadix(k int) Spec {
	s.inner.MeshRadix = k
	return s
}

// WithName returns the spec relabeled.
func (s Spec) WithName(name string) Spec {
	s.inner.Name = name
	return s
}

// WithRetry returns the spec with the end-to-end retry budget: a destination
// that detects a lost packet notifies the source, which re-injects it up to
// limit times. Ignored by non-flit-reservation specs.
func (s Spec) WithRetry(limit int) Spec {
	s.inner.FR.RetryLimit = limit
	return s
}

// WithRouting returns the spec routed by the named algorithm: "xy" (the
// default dimension order), "yx", or "table" (fault-aware per-node lookup
// tables). Flit-reservation specs only; Run panics otherwise.
func (s Spec) WithRouting(name string) Spec {
	s.inner.Routing = name
	return s
}

// WithScenario returns the spec with a hard-fault schedule parsed from the
// scenario grammar — semicolon-separated events "down A-B @C", "up A-B @C",
// "kill N @C" — applied deterministically mid-run. The scenario rides the
// spec, so harness campaigns replay it bit-identically on any worker count.
// Flit-reservation specs only; Run panics otherwise.
func (s Spec) WithScenario(scenario string) (Spec, error) {
	events, err := core.ParseScenario(scenario)
	if err != nil {
		return Spec{}, err
	}
	s.inner.Faults = events
	return s, nil
}

// WithCheck returns the spec with correctness checking enabled; a violation
// panics with a diagnostic. Observation-only — results are unchanged. On any
// substrate it arms the latency ledger's strict stage-conservation assertion
// (every decomposed packet's stages must sum exactly to its measured
// latency); on flit-reservation specs it additionally enables the per-cycle
// in-fabric invariant checker.
func (s Spec) WithCheck(on bool) Spec {
	s.inner.Check = on
	return s
}

// WithBER returns the spec with a per-flit bit-error probability on
// inter-router links: each flit is delivered on time but corrupted with this
// probability, and only the modeled hop CRC (see WithCRC) or the end-to-end
// check (see WithE2ECheck) can notice. Works for flit-reservation and
// virtual-channel specs.
func (s Spec) WithBER(ber float64) Spec {
	s.inner.FR.BER = ber
	s.inner.VC.BER = ber
	return s
}

// WithCRC returns the spec with a modeled per-hop CRC of the given width:
// a corrupted flit is detected at each hop with probability 1 - 2^-bits.
// Negative disables hop detection entirely, so every corruption escapes to
// its destination.
func (s Spec) WithCRC(bits int) Spec {
	s.inner.FR.CrcBits = bits
	s.inner.VC.CrcBits = bits
	return s
}

// WithE2ECheck returns the spec with the end-to-end payload checksum armed:
// a packet completing with corrupted payload is treated as lost — NACKed and,
// under WithRetry, retransmitted — instead of delivered. Flit-reservation
// specs only (the virtual-channel baseline has no recovery layer; its escapes
// are only counted).
func (s Spec) WithE2ECheck(on bool) Spec {
	s.inner.FR.E2ECheck = on
	return s
}

// WithChaos returns the spec running under a deterministic chaos campaign of
// the given intensity in (0, 1]: composed soft loss, background bit errors,
// link flaps, mid-run corruption spikes and (at intensity >= 0.75) router
// kills, all expanded from (intensity, seed) by core.NewChaosPlan. The
// campaign overwrites any WithScenario schedule and rides the spec, so
// harness campaigns replay it bit-identically at any worker count.
// Flit-reservation specs only; Run panics otherwise.
func (s Spec) WithChaos(intensity float64, seed uint64) Spec {
	s.inner.ChaosIntensity = intensity
	s.inner.ChaosSeed = seed
	return s
}
