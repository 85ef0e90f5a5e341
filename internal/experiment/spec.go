// Package experiment drives the simulator through the paper's measurement
// protocol: warm up until source queues stabilize, tag a sample of packets,
// run until every tagged packet is delivered, and report average latency with
// confidence intervals and accepted throughput. It also names the paper's
// experimental configurations (FR6, FR13, VC8, VC16, VC32 under fast-control
// and leading-control wiring) and locates saturation throughput by search.
package experiment

import (
	"fmt"

	"frfc/internal/circuit"
	"frfc/internal/core"
	"frfc/internal/noc"
	"frfc/internal/overhead"
	"frfc/internal/packetswitch"
	"frfc/internal/routing"
	"frfc/internal/sim"
	"frfc/internal/topology"
	"frfc/internal/traffic"
	"frfc/internal/vcrouter"
	"frfc/internal/wormhole"
)

// Flow selects the flow-control method under test.
type Flow string

// Flow-control methods.
const (
	FlitReservation Flow = "flit-reservation"
	VirtualChannel  Flow = "virtual-channel"
	Wormhole        Flow = "wormhole"
	StoreForward    Flow = "store-and-forward"
	CutThrough      Flow = "cut-through"
	CircuitSwitch   Flow = "circuit"
)

// Wiring selects the paper's two physical configurations.
type Wiring string

// Wirings: FastControl has data wires 4× slower than control/credit wires
// (data links 4 cycles, control and credit links 1 cycle). LeadingControl
// has every wire at 1 cycle, with control flits injected LeadCycles ahead of
// their data flits.
const (
	FastControl    Wiring = "fast-control"
	LeadingControl Wiring = "leading-control"
)

// Spec fully describes one simulated configuration, independent of offered
// load (the load is the sweep variable).
type Spec struct {
	Name string
	Flow Flow

	// FR is consulted when Flow is FlitReservation.
	FR core.Config
	// VC is consulted when Flow is VirtualChannel.
	VC vcrouter.Config
	// WH is consulted when Flow is Wormhole.
	WH wormhole.Config
	// PS is consulted when Flow is StoreForward or CutThrough.
	PS packetswitch.Config
	// CS is consulted when Flow is CircuitSwitch.
	CS circuit.Config

	MeshRadix int
	PacketLen int
	Pattern   traffic.Pattern
	// Bernoulli switches the injection process from the paper's constant
	// rate source to a Bernoulli process.
	Bernoulli bool
	Seed      uint64

	// WarmupCycles is the minimum warm-up; the run then continues until
	// source-queue lengths stabilize, up to MaxWarmupCycles.
	WarmupCycles    sim.Cycle
	MaxWarmupCycles sim.Cycle
	// SamplePackets is how many packets are tagged and measured; a row of
	// a resolved sweep (Resolve) offers exactly that many packets.
	SamplePackets int
	// DrainFactor bounds how long the run waits for tagged packets, as a
	// multiple of the cycles the sample took to create; a run exceeding
	// it is reported Saturated.
	DrainFactor int

	// BandwidthPenalty is the fraction of data bandwidth this
	// configuration spends on control overhead beyond its comparison
	// baseline; reported throughput is debited by it, as the paper does
	// for flit reservation's arrival-time stamps (~2%).
	BandwidthPenalty float64

	// Routing names the routing algorithm for flit-reservation runs: ""
	// or "xy" (dimension-ordered, the paper's choice), "yx" (transposed
	// dimension order), or "table" (per-node lookup table with up*/down*
	// turn restrictions — the fault-aware option scenarios force). A string
	// rather than a routing.Algorithm so specs stay hashable by value.
	Routing string
	// Faults is the deterministic hard-fault scenario applied to
	// flit-reservation runs: scheduled link and router outages, part of the
	// spec — and therefore of the harness job hash — so scenario results
	// are bit-identical across worker counts.
	Faults []core.FaultEvent
	// Check enables the core runtime invariant checker for the run.
	Check bool

	// ChaosIntensity, when positive, expands a deterministic chaos campaign
	// — composed soft loss, background bit errors, link flaps, mid-run
	// corruption spikes and (at intensity >= 0.75) router kills — and
	// installs it into flit-reservation runs, overwriting Faults and the
	// fault rates (see core.NewChaosPlan). The plan is a pure function of
	// (intensity, horizon, seed), so chaos specs hash stably and replay
	// bit-identically at any worker count. Mutually exclusive with Faults.
	ChaosIntensity float64
	// ChaosHorizon is the cycle window chaos events land in (0 takes the
	// core default); ChaosSeed drives the plan generator.
	ChaosHorizon sim.Cycle
	ChaosSeed    uint64
}

// withDefaults fills unset measurement parameters with values scaled for
// interactive use and derives a flit-reservation spec's BandwidthPenalty from
// its own configuration, so a field set after the preset was built is debited
// at its own value. The paper-scale protocol (10,000-cycle warm-up, 100,000
// sampled packets) is selected by cmd/paperfigs via PaperScale.
func (s Spec) withDefaults() Spec {
	if s.MeshRadix == 0 {
		s.MeshRadix = 8
	}
	if s.PacketLen == 0 {
		s.PacketLen = 5
	}
	if s.Pattern == nil {
		s.Pattern = traffic.Uniform{}
	}
	if s.Seed == 0 {
		s.Seed = 0xF11725E5
	}
	if s.WarmupCycles == 0 {
		s.WarmupCycles = 2000
	}
	if s.MaxWarmupCycles == 0 {
		s.MaxWarmupCycles = 4 * s.WarmupCycles
	}
	if s.SamplePackets == 0 {
		s.SamplePackets = 3000
	}
	if s.DrainFactor == 0 {
		s.DrainFactor = 8
	}
	if s.Flow == FlitReservation {
		s.BandwidthPenalty = frBandwidthPenalty(s.MeshRadix, s.PacketLen, s.FR)
	}
	return s
}

// Normalized returns the spec with every unset measurement parameter filled
// with its default, the form Run actually executes. Orchestration layers hash
// normalized specs so that a spec and its explicit-default twin share a cache
// key.
func (s Spec) Normalized() Spec { return s.withDefaults() }

// PaperScale returns the spec with the paper's measurement protocol: at
// least 10,000 warm-up cycles and 100,000 sampled packets.
func (s Spec) PaperScale() Spec {
	s.WarmupCycles = 10000
	s.MaxWarmupCycles = 40000
	s.SamplePackets = 100000
	s.DrainFactor = 8
	return s
}

// Scaled returns the spec with measurement effort scaled by the given
// fraction of the paper protocol, for quick sweeps and benchmarks.
func (s Spec) Scaled(samplePackets int, warmup sim.Cycle) Spec {
	s.WarmupCycles = warmup
	s.MaxWarmupCycles = 4 * warmup
	s.SamplePackets = samplePackets
	return s
}

// WithSampling returns the spec with the given measurement sample size and
// minimum warm-up length (cycles).
func (s Spec) WithSampling(samplePackets, warmupCycles int) Spec {
	return s.Scaled(samplePackets, sim.Cycle(warmupCycles))
}

// WithSeed returns the spec with a different random seed.
func (s Spec) WithSeed(seed uint64) Spec {
	s.Seed = seed
	return s
}

// WithMeshRadix returns the spec on a k×k mesh.
func (s Spec) WithMeshRadix(k int) Spec {
	s.MeshRadix = k
	return s
}

// frBandwidthPenalty computes the Table 2 debit for an FR configuration on a
// k×k mesh against the storage-matched VC baseline with v_d = v_c. Unset
// router fields count at the values core.New gives them; a configuration
// core.New refuses (a count below one) is debited nothing here.
func frBandwidthPenalty(k, pktLen int, fr core.Config) float64 {
	fr = fr.WithDefaults()
	if fr.CtrlVCs < 1 || fr.LeadsPerCtrl < 1 || fr.Horizon < 1 {
		return 0
	}
	n := overhead.Log2Ceil(k * k)
	frBW := overhead.BandwidthParams{DestBits: n, PacketLen: pktLen, VCs: fr.CtrlVCs, Leads: fr.LeadsPerCtrl, Horizon: int(fr.Horizon)}
	vcBW := overhead.BandwidthParams{DestBits: n, PacketLen: pktLen, VCs: fr.CtrlVCs}
	return overhead.FRBandwidthPenalty(frBW, vcBW, 256)
}

// frConfig builds the paper's FR router parameters for a buffer count and
// control-VC count under the given wiring.
func frConfig(w Wiring, dataBuffers, ctrlVCs int, lead sim.Cycle) core.Config {
	c := core.Config{
		DataBuffers:       dataBuffers,
		CtrlVCs:           ctrlVCs,
		CtrlBufPerVC:      3,
		Horizon:           32,
		LeadsPerCtrl:      1,
		CtrlFlitsPerCycle: 2,
		CtrlLinkLatency:   1,
		CreditLatency:     1,
		LocalLatency:      1,
	}
	c.DataLinkLatency = dataLinkLatency(w)
	if w == LeadingControl {
		if lead == 0 {
			lead = 1
		}
		c.LeadCycles = lead
	}
	return c
}

// dataLinkLatency is a wiring's data-wire latency in cycles: 4 under fast
// control, whose control and credit wires take 1, and 1 under leading control.
func dataLinkLatency(w Wiring) sim.Cycle {
	switch w {
	case FastControl:
		return 4
	case LeadingControl:
		return 1
	}
	panic(fmt.Sprintf("experiment: unknown wiring %q", w))
}

// vcConfig builds the paper's VC router parameters (4 flits per virtual
// channel, the depth the paper found best) under the given wiring.
func vcConfig(w Wiring, vcs int) vcrouter.Config {
	return vcrouter.Config{
		NumVCs:        vcs,
		BufPerVC:      4,
		LinkLatency:   dataLinkLatency(w),
		CreditLatency: 1,
		LocalLatency:  1,
	}
}

// FR6 is the paper's 6-buffer flit-reservation configuration
// (storage-matched to VC8): 2 control VCs of 3 buffers, horizon 32.
func FR6(w Wiring, pktLen int) Spec {
	return FRSpec("FR6", w, 6, 2, 1, pktLen)
}

// FR13 is the paper's 13-buffer flit-reservation configuration
// (storage-matched to VC16): 4 control VCs of 3 buffers, horizon 32.
func FR13(w Wiring, pktLen int) Spec {
	return FRSpec("FR13", w, 13, 4, 1, pktLen)
}

// FRLead is FR6 under leading control with an explicit control lead of N
// cycles (Figure 8 sweeps N over 1, 2, 4).
func FRLead(lead sim.Cycle, pktLen int) Spec {
	s := FRSpec(fmt.Sprintf("FR6-lead%d", lead), LeadingControl, 6, 2, lead, pktLen)
	return s
}

// FRSpec builds a flit-reservation spec with explicit buffer and control-VC
// counts, keeping the paper's remaining parameters (3 control buffers per
// VC, horizon 32, d=1, 2 control flits/cycle). Under FastControl wiring the
// lead parameter is ignored.
func FRSpec(name string, w Wiring, buffers, ctrlVCs int, lead sim.Cycle, pktLen int) Spec {
	s := Spec{
		Name:      name,
		Flow:      FlitReservation,
		FR:        frConfig(w, buffers, ctrlVCs, lead),
		PacketLen: pktLen,
	}
	return s.withDefaults()
}

// VC8 is virtual-channel flow control with 8 buffers per input (2 VCs × 4).
func VC8(w Wiring, pktLen int) Spec { return vcSpec("VC8", w, 2, pktLen) }

// VC16 is virtual-channel flow control with 16 buffers per input (4 VCs × 4).
func VC16(w Wiring, pktLen int) Spec { return vcSpec("VC16", w, 4, pktLen) }

// VC32 is virtual-channel flow control with 32 buffers per input (8 VCs × 4).
func VC32(w Wiring, pktLen int) Spec { return vcSpec("VC32", w, 8, pktLen) }

func vcSpec(name string, w Wiring, vcs, pktLen int) Spec {
	s := Spec{
		Name:      name,
		Flow:      VirtualChannel,
		VC:        vcConfig(w, vcs),
		PacketLen: pktLen,
	}
	return s.withDefaults()
}

// WormholeSpec builds a wormhole baseline spec ([DalSei86], Section 2 of the
// paper) with the given per-input buffer depth under the given wiring.
func WormholeSpec(name string, w Wiring, depth, pktLen int) Spec {
	c := wormhole.Config{BufferDepth: depth, LinkLatency: dataLinkLatency(w), CreditLatency: 1, LocalLatency: 1}
	s := Spec{Name: name, Flow: Wormhole, WH: c, PacketLen: pktLen}
	return s.withDefaults()
}

// PacketSwitchSpec builds a store-and-forward or cut-through baseline spec
// (Section 2 of the paper) with the given packet buffers per input.
func PacketSwitchSpec(name string, flow Flow, w Wiring, buffers, pktLen int) Spec {
	c := packetswitch.Config{Mode: psMode(flow), PacketBuffers: buffers, MaxPacketLen: pktLen, LinkLatency: dataLinkLatency(w), CreditLatency: 1, LocalLatency: 1}
	s := Spec{Name: name, Flow: flow, PS: c, PacketLen: pktLen}
	return s.withDefaults()
}

// psMode is the packet-switch forwarding rule a packet-switched flow names.
func psMode(flow Flow) packetswitch.Mode {
	if flow == CutThrough {
		return packetswitch.CutThrough
	}
	return packetswitch.StoreAndForward
}

// CircuitSpec builds a circuit-switching baseline spec (the substrate of the
// wave-switching hybrid of Section 2): probes on fast control wires reserve
// an exclusive path, then the message streams unbuffered.
func CircuitSpec(name string, w Wiring, pktLen int) Spec {
	c := circuit.Config{ProbeBuffers: 4, LinkLatency: dataLinkLatency(w), CtrlLinkLatency: 1, LocalLatency: 1}
	s := Spec{Name: name, Flow: CircuitSwitch, CS: c, PacketLen: pktLen}
	return s.withDefaults()
}

// ResolveRouting maps a spec's routing name onto a core routing algorithm
// for the given mesh; it panics on unknown names. Nil means the core default
// (dimension-ordered XY).
func ResolveRouting(name string, mesh topology.Mesh) routing.Algorithm {
	switch name {
	case "", "xy":
		return nil
	case "yx":
		return routing.YX
	case "table":
		return routing.NewTable(mesh)
	default:
		panic(fmt.Sprintf("experiment: unknown routing %q (want xy, yx or table)", name))
	}
}

// chaosPlan expands the spec's chaos campaign on its mesh: the plan NewNetwork
// installs, a pure function of ChaosIntensity, ChaosHorizon and ChaosSeed.
func (s Spec) chaosPlan() core.ChaosPlan {
	return core.NewChaosPlan(topology.NewMesh(s.MeshRadix), core.ChaosOptions{
		Intensity: s.ChaosIntensity, Horizon: s.ChaosHorizon, Seed: s.ChaosSeed,
	})
}

// NewNetwork builds the network a spec describes, with the given hooks.
func NewNetwork(s Spec, hooks *noc.Hooks) (noc.Network, topology.Mesh) {
	s = s.withDefaults()
	mesh := topology.NewMesh(s.MeshRadix)
	if s.Flow != FlitReservation && (len(s.Faults) > 0 || s.ChaosIntensity > 0 || (s.Routing != "" && s.Routing != "xy")) {
		// Silently dropping a scenario would report a healthy run as a
		// degraded one's result.
		panic(fmt.Sprintf("experiment: routing/fault/chaos options are implemented for %s only, not %s", FlitReservation, s.Flow))
	}
	if (s.Flow == StoreForward || s.Flow == CutThrough) && s.PS.Mode != psMode(s.Flow) {
		// The network would run the mode and report it under the flow's name.
		panic(fmt.Sprintf("experiment: %s is a %s spec whose packet switch runs %s, not %s", s.Name, s.Flow, s.PS.Mode, psMode(s.Flow)))
	}
	// Check is meaningful on every substrate: it arms the latency ledger's
	// strict conservation assertion for all flows, and additionally the
	// in-fabric invariant checker on flit-reservation networks below.
	if s.ChaosIntensity > 0 && len(s.Faults) > 0 {
		panic("experiment: ChaosIntensity and Faults are mutually exclusive — the chaos plan overwrites the fault scenario")
	}
	switch s.Flow {
	case FlitReservation:
		cfg := s.FR
		if alg := ResolveRouting(s.Routing, mesh); alg != nil {
			cfg.Routing = alg
		}
		if len(s.Faults) > 0 {
			cfg.Faults = append([]core.FaultEvent(nil), s.Faults...)
		}
		if s.ChaosIntensity > 0 {
			cfg = s.chaosPlan().Apply(cfg)
		}
		if s.Check {
			cfg.Check = true
		}
		return core.New(mesh, cfg, s.Seed, hooks), mesh
	case VirtualChannel:
		return vcrouter.New(mesh, s.VC, s.Seed, hooks), mesh
	case Wormhole:
		return wormhole.New(mesh, s.WH, s.Seed, hooks), mesh
	case StoreForward, CutThrough:
		return packetswitch.New(mesh, s.PS, s.Seed, hooks), mesh
	case CircuitSwitch:
		return circuit.New(mesh, s.CS, s.Seed, hooks), mesh
	default:
		panic(fmt.Sprintf("experiment: unknown flow control %q", s.Flow))
	}
}
