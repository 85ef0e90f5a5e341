package experiment

import (
	"fmt"

	"frfc/internal/sim"
)

// ChaosSweepOptions parameterizes a chaos sweep (600 packets per row by
// default, so traffic spans the campaign's events). Each row's campaign
// schedules its events over the offering window — three cycles per packet —
// plus a 500-cycle settle margin, so every campaign bites live traffic.
type ChaosSweepOptions struct {
	ResolveOptions
	// Intensities are the chaos intensities swept, each in (0, 1]. Nil
	// selects the defaults {0.25, 0.5, 1.0}; router kills only appear at
	// intensity >= 0.75.
	Intensities []float64
	// ChaosSeed drives the plan generator (ResolveOptions.Seed the network
	// and workload). Both default fixed.
	ChaosSeed uint64
	// DisableE2E turns the end-to-end payload check off (it is on by
	// default); chaos without it silently accepts escapes.
	DisableE2E bool
}

func (o ChaosSweepOptions) withDefaults() ChaosSweepOptions {
	o.ResolveOptions = o.ResolveOptions.withDefaults(600, 0x1D7E9)
	if o.Intensities == nil {
		o.Intensities = []float64{0.25, 0.5, 1.0}
	}
	if o.ChaosSeed == 0 {
		o.ChaosSeed = 0xCA05
	}
	return o
}

// Rows enumerates the chaos sweep, which runs one deterministic chaos
// campaign per intensity — composed soft loss, bit errors, link flaps,
// corruption spikes and (at high intensity) router kills — against the FR6
// network with end-to-end retry and reports how much traffic survived; a
// row's Events are its campaign's plan. It is the experiment behind the
// robustness claim: at moderate intensity (no router kills) delivery stays
// total — every loss, flap and corruption is absorbed by hop CRCs,
// reclamation and retries — and at full intensity only traffic stranded by
// dead routers is written off, fast, as unreachable.
func (o ChaosSweepOptions) Rows() []Spec {
	o = o.withDefaults()
	rows := make([]Spec, 0, len(o.Intensities))
	for _, intensity := range o.Intensities {
		s := o.spec()
		s.Name = fmt.Sprintf("intensity=%g", intensity)
		s.ChaosIntensity, s.ChaosHorizon, s.ChaosSeed = intensity, sim.Cycle(3*o.Packets)+500, o.ChaosSeed
		s.FR.E2ECheck = !o.DisableE2E
		rows = append(rows, s)
	}
	return rows
}
