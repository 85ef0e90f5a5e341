package experiment

import (
	"context"
	"fmt"

	"frfc/internal/sim"
)

// ChaosPoint is one row of a chaos sweep: a flit-reservation network run under
// a deterministically generated chaos campaign — composed soft loss, bit
// errors, link flaps, corruption spikes and (at high intensity) router kills
// — until every offered packet's fate is resolved. The ledger carries the
// corruption activity too: see IntegrityPoint.
type ChaosPoint struct {
	Intensity float64
	Seed      uint64
	// Events is how many scheduled fault events the plan expanded to.
	Events int
	Resolved
}

// String renders the point as one sweep row.
func (p ChaosPoint) String() string {
	return fmt.Sprintf("intensity=%.2f events=%2d delivered=%6.2f%%  unreachable=%3d  dropped=%4d  corrupted=%5d  escapes=%3d  retried=%4d",
		p.Intensity, p.Events, p.DeliveredFraction()*100, p.Unreachable,
		p.DroppedFlits, p.CorruptedFlits, p.CorruptEscapes, p.Retried)
}

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

// Cells enumerates the chaos sweep, which runs one deterministic chaos
// campaign per intensity against the FR6 network with end-to-end retry and
// reports how much traffic survived. It is the experiment behind the
// robustness claim: at moderate intensity (no router kills) delivery stays
// total — every loss, flap and corruption is absorbed by hop CRCs, reclamation
// and retries — and at full intensity only traffic stranded by dead routers is
// written off, fast, as unreachable.
func (o ChaosSweepOptions) Cells() []Cell[ChaosPoint] {
	o = o.withDefaults()
	cells := make([]Cell[ChaosPoint], 0, len(o.Intensities))
	for _, intensity := range o.Intensities {
		s := o.spec()
		s.ChaosIntensity, s.ChaosHorizon, s.ChaosSeed = intensity, sim.Cycle(3*o.Packets)+500, o.ChaosSeed
		s.FR.E2ECheck = !o.DisableE2E
		cells = append(cells, Cell[ChaosPoint]{
			Name: fmt.Sprintf("chaos cell (intensity=%g)", intensity),
			Run: func(ctx context.Context) (ChaosPoint, error) {
				res, err := resolve(ctx, o.ResolveOptions, s, nil)
				if err != nil {
					return ChaosPoint{}, err
				}
				return ChaosPoint{Intensity: intensity, Seed: o.ChaosSeed, Events: len(s.chaosPlan().Events), Resolved: res}, nil
			},
		})
	}
	return cells
}
