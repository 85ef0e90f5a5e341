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
//
// A configuration beyond the presets is a preset with some fields changed:
//
//	spec.FR.Horizon = 64 // a 64-cycle scheduling horizon
package frfc

import (
	"errors"
	"fmt"

	"frfc/internal/core"
	"frfc/internal/experiment"
	"frfc/internal/sim"
	"frfc/internal/traffic"
)

// Wiring selects the paper's two physical configurations.
type Wiring = experiment.Wiring

// Wirings. FastControl models on-chip control and credit wires four times
// faster than the data wires (control/credit links 1 cycle, data links 4).
// LeadingControl models uniform 1-cycle wires with control flits injected
// ahead of their data flits.
const (
	FastControl    = experiment.FastControl
	LeadingControl = experiment.LeadingControl
)

// Spec is a fully described network configuration plus measurement protocol,
// as plain fields: the flow-control method and its router parameters (FR for
// flit reservation, VC for virtual channels, ...), the mesh, packet length,
// traffic Pattern and Seed, the measurement protocol, and the Routing, Faults,
// Check and chaos fields of a reliability run. Build one with a preset
// constructor (FR6, VC8, ...), set the fields that differ, and pass it to Run,
// Sweep, or SaturationThroughput. WithSampling, WithSeed, WithMeshRadix and
// PaperScale return refined copies.
type Spec = experiment.Spec

// FR6 is the paper's 6-buffer flit-reservation configuration (2 control VCs
// of 3 flits, scheduling horizon 32), storage-matched to VC8.
func FR6(w Wiring, packetLen int) Spec { return experiment.FR6(w, packetLen) }

// FR13 is the paper's 13-buffer flit-reservation configuration (4 control
// VCs of 3 flits), storage-matched to VC16.
func FR13(w Wiring, packetLen int) Spec { return experiment.FR13(w, packetLen) }

// FRLead is FR6 under leading control with control flits injected lead
// cycles ahead of their data flits (Figure 8 uses leads of 1, 2 and 4).
func FRLead(lead int, packetLen int) Spec {
	return experiment.FRLead(sim.Cycle(lead), packetLen)
}

// VC8 is virtual-channel flow control with 8 buffers per input (2 VCs × 4).
func VC8(w Wiring, packetLen int) Spec { return experiment.VC8(w, packetLen) }

// VC16 is virtual-channel flow control with 16 buffers per input (4 VCs × 4).
func VC16(w Wiring, packetLen int) Spec { return experiment.VC16(w, packetLen) }

// VC32 is virtual-channel flow control with 32 buffers per input (8 VCs × 4).
func VC32(w Wiring, packetLen int) Spec { return experiment.VC32(w, packetLen) }

// WormholeSpec is wormhole flow control [DalSei86] with the given flit
// buffer depth per input — the pre-virtual-channel baseline of the paper's
// related-work lineage.
func WormholeSpec(w Wiring, bufferDepth, packetLen int) Spec {
	return experiment.WormholeSpec(fmt.Sprintf("WH%d", bufferDepth), w, bufferDepth, packetLen)
}

// StoreAndForwardSpec is store-and-forward flow control with the given
// packet buffers per input: whole packets are received before being
// forwarded, the oldest method in the paper's Section 2 lineage.
func StoreAndForwardSpec(w Wiring, packetBuffers, packetLen int) Spec {
	return experiment.PacketSwitchSpec(fmt.Sprintf("SAF%d", packetBuffers), experiment.StoreForward, w, packetBuffers, packetLen)
}

// CutThroughSpec is virtual cut-through flow control [KerKle79]: forwarding
// begins as soon as the header arrives, but buffers and channels are still
// allocated in packet-sized units.
func CutThroughSpec(w Wiring, packetBuffers, packetLen int) Spec {
	return experiment.PacketSwitchSpec(fmt.Sprintf("VCT%d", packetBuffers), experiment.CutThrough, w, packetBuffers, packetLen)
}

// CircuitSpec is circuit switching (the substrate of the wave-switching
// hybrid the paper reviews): a probe on fast control wires reserves an
// exclusive path, the message streams over it unbuffered, and the tail tears
// it down. Strong on very long messages, weak on short ones — the setup must
// amortize.
func CircuitSpec(w Wiring, packetLen int) Spec {
	return experiment.CircuitSpec("CS", w, packetLen)
}

// ConfigNames lists the named configurations a Grid resolves, as flag help
// prints them.
var ConfigNames = experiment.ConfigNames

// ParseWiring resolves the wiring vocabulary of the command lines and the
// campaign service: "fast" (or empty) and "leading".
func ParseWiring(name string) (Wiring, error) { return experiment.ParseWiring(name) }

// ParsePattern resolves a traffic-pattern name for Spec.Pattern: "uniform"
// (or empty, the paper's), "transpose", "bitcomp", "tornado", "neighbor",
// "bitrev" or "shuffle".
func ParsePattern(name string) (traffic.Pattern, error) { return experiment.ParsePattern(name) }

// ParseScenario parses a hard-fault schedule for Spec.Faults, in the scenario
// grammar: semicolon-separated events "down A-B @C" (sever the link between
// neighbor nodes A and B at cycle C), "up A-B @C" (restore it) and "kill N @C"
// (permanently fail node N's router), applied deterministically mid-run. The
// schedule rides the spec, so harness campaigns replay it bit-identically on
// any worker count. Flit-reservation specs only; Run panics otherwise.
func ParseScenario(scenario string) ([]core.FaultEvent, error) { return core.ParseScenario(scenario) }

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
	var specs []Spec
	if err == nil {
		specs, err = experiment.Grid(g).Specs()
	}
	if err != nil {
		var ge *experiment.GridError
		if errors.As(err, &ge) && ge.Field != "" {
			err = fmt.Errorf("-%w", err)
		}
		return nil, nil, err
	}
	return specs, loads, nil
}
