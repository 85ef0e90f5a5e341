package service

import (
	"fmt"
	"math"
	"strings"

	"frfc/internal/experiment"
	"frfc/internal/harness"
	"frfc/internal/sim"
)

// SweepRequest is the JSON body of POST /campaigns: a load-grid sweep over
// named configurations, the service analog of a cmd/sweep invocation. The
// grid expansion, spec construction and sampling knobs mirror cmd/sweep
// exactly, so a campaign submitted here produces jobs with the same content
// hashes — and therefore the same stored bytes — as the one-shot CLI run.
type SweepRequest struct {
	// Name labels the campaign in listings and /status; optional.
	Name string `json:"name,omitempty"`
	// Configs names the specs to sweep: FR6, FR13, VC8, VC16, VC32, WH,
	// SAF, VCT, CS, FR6-leadN.
	Configs []string `json:"configs"`
	// Wiring is "fast" (default) or "leading".
	Wiring string `json:"wiring,omitempty"`
	// PacketLen is the packet length in data flits; 0 means 5.
	PacketLen int `json:"pktlen,omitempty"`

	// Loads is the explicit offered-load grid (fractions of capacity).
	// When empty, From/To/Step expand one, exactly as cmd/sweep does.
	Loads []float64 `json:"loads,omitempty"`
	From  float64   `json:"from,omitempty"`
	To    float64   `json:"to,omitempty"`
	Step  float64   `json:"step,omitempty"`

	// Sample and Warmup scale the measurement protocol; 0 keeps the spec
	// defaults. Seed overrides the RNG seed; Routing and Check mirror the
	// sweep flags of the same names.
	Sample  int    `json:"sample,omitempty"`
	Warmup  int    `json:"warmup,omitempty"`
	Seed    uint64 `json:"seed,omitempty"`
	Routing string `json:"routing,omitempty"`
	Check   bool   `json:"check,omitempty"`

	// Waterfall arms latency provenance on every simulated job: stored
	// results carry the Waterfall* stage decomposition (the seven lifecycle
	// stages summing exactly to the measured latency), exactly as cmd/sweep
	// -waterfall does. Observation-only: every other result field and the
	// job hashes are unchanged, so provenance-on and provenance-off
	// campaigns dedup against each other.
	Waterfall bool `json:"waterfall,omitempty"`

	// Weight is the campaign's share of the shared worker pool under
	// weighted round-robin; 0 means 1. MaxInFlight caps how many of the
	// campaign's jobs may execute at once; 0 means no cap beyond the pool.
	Weight      int `json:"weight,omitempty"`
	MaxInFlight int `json:"maxInFlight,omitempty"`
}

// normalized fills the request's defaults in place and validates it.
func (r *SweepRequest) normalized() error {
	if len(r.Configs) == 0 {
		return fmt.Errorf("configs must name at least one configuration")
	}
	if r.Wiring == "" {
		r.Wiring = "fast"
	}
	if r.Wiring != "fast" && r.Wiring != "leading" {
		return fmt.Errorf("unknown wiring %q (want fast or leading)", r.Wiring)
	}
	if r.PacketLen == 0 {
		r.PacketLen = 5
	}
	if r.PacketLen < 1 {
		return fmt.Errorf("pktlen must be >= 1 (got %d)", r.PacketLen)
	}
	if len(r.Loads) == 0 {
		if r.Step <= 0 {
			return fmt.Errorf("step must be > 0 (got %g)", r.Step)
		}
		if r.From <= 0 {
			return fmt.Errorf("from must be > 0 (got %g)", r.From)
		}
		if r.From > r.To {
			return fmt.Errorf("from (%g) must not exceed to (%g)", r.From, r.To)
		}
		// The identical accumulation loop cmd/sweep runs, so the grid's
		// float64 values — and therefore the job hashes and stored line
		// bytes — match the CLI's exactly.
		for l := r.From; l <= r.To+1e-9; l += r.Step {
			r.Loads = append(r.Loads, l)
		}
	}
	for _, l := range r.Loads {
		if l <= 0 || l > 2 {
			return fmt.Errorf("load %g out of range (0,2]", l)
		}
	}
	if r.Sample < 0 || r.Warmup < 0 {
		return fmt.Errorf("sample and warmup must be >= 0")
	}
	if (r.Sample == 0) != (r.Warmup == 0) {
		return fmt.Errorf("sample and warmup must be set together")
	}
	if r.Weight == 0 {
		r.Weight = 1
	}
	if r.Weight < 1 {
		return fmt.Errorf("weight must be >= 1 (got %d)", r.Weight)
	}
	if r.MaxInFlight < 0 {
		return fmt.Errorf("maxInFlight must be >= 0 (got %d)", r.MaxInFlight)
	}
	if r.Name == "" {
		r.Name = strings.Join(r.Configs, ",")
	}
	return nil
}

// estimateJobs computes the job count the request would expand to, by
// arithmetic alone — no grid allocation — validating just the fields the
// estimate rests on. Admission control checks MaxJobsPerCampaign against
// this before normalized() materializes anything, so rejecting an absurd
// from/to/step costs a handful of float ops, not the memory the grid
// claims.
func (r SweepRequest) estimateJobs() (int, error) {
	if len(r.Configs) == 0 {
		return 0, fmt.Errorf("configs must name at least one configuration")
	}
	loads := len(r.Loads)
	if loads == 0 {
		if r.Step <= 0 {
			return 0, fmt.Errorf("step must be > 0 (got %g)", r.Step)
		}
		if r.From <= 0 {
			return 0, fmt.Errorf("from must be > 0 (got %g)", r.From)
		}
		if r.From > r.To {
			return 0, fmt.Errorf("from (%g) must not exceed to (%g)", r.From, r.To)
		}
		// Trip count of normalized()'s accumulation loop: l = From + k*Step
		// while l <= To + 1e-9.
		n := math.Floor((r.To+1e-9-r.From)/r.Step) + 1
		if n > math.MaxInt32 {
			return math.MaxInt32, nil
		}
		loads = int(n)
	}
	total := loads * len(r.Configs)
	if total < 0 || (loads > 0 && total/loads != len(r.Configs)) {
		return math.MaxInt32, nil // overflow: report "huge", let the cap reject it
	}
	return total, nil
}

// jobs expands the normalized request into harness jobs, specs outermost —
// the same order a cmd/sweep grid builds, so result streams line up with a
// one-shot store written by a single worker.
func (r SweepRequest) jobs() ([]harness.Job, error) {
	w := experiment.FastControl
	if r.Wiring == "leading" {
		w = experiment.LeadingControl
	}
	jobs := make([]harness.Job, 0, len(r.Configs)*len(r.Loads))
	for _, name := range r.Configs {
		spec, err := specByName(strings.TrimSpace(name), w, r.PacketLen)
		if err != nil {
			return nil, err
		}
		if r.Sample > 0 {
			spec = spec.Scaled(r.Sample, sim.Cycle(r.Warmup))
		}
		if r.Seed != 0 {
			spec.Seed = r.Seed
		}
		if r.Routing != "" {
			switch r.Routing {
			case "xy", "yx", "table":
				spec.Routing = r.Routing
			default:
				return nil, fmt.Errorf("unknown routing %q (want xy, yx or table)", r.Routing)
			}
		}
		if r.Check {
			spec.Check = true
		}
		jobs = harness.AppendJobs(jobs, spec, r.Loads)
	}
	return jobs, nil
}

// specByName resolves the sweep config vocabulary to an experiment spec,
// mirroring cmd/sweep's specFor (including the FR6-under-leading special
// case) so service campaigns hash identically to CLI campaigns.
func specByName(name string, w experiment.Wiring, pktLen int) (experiment.Spec, error) {
	if lead, ok := strings.CutPrefix(name, "FR6-lead"); ok {
		var n int
		if _, err := fmt.Sscanf(lead, "%d", &n); err != nil {
			return experiment.Spec{}, fmt.Errorf("bad lead suffix in %q", name)
		}
		return experiment.FRLead(sim.Cycle(n), pktLen), nil
	}
	switch name {
	case "FR6":
		if w == experiment.LeadingControl {
			return experiment.FRLead(1, pktLen), nil
		}
		return experiment.FR6(w, pktLen), nil
	case "FR13":
		return experiment.FR13(w, pktLen), nil
	case "VC8":
		return experiment.VC8(w, pktLen), nil
	case "VC16":
		return experiment.VC16(w, pktLen), nil
	case "VC32":
		return experiment.VC32(w, pktLen), nil
	case "WH":
		return experiment.WormholeSpec("WH8", w, 8, pktLen), nil
	case "SAF":
		return experiment.PacketSwitchSpec("SAF2", experiment.StoreForward, w, 2, pktLen), nil
	case "VCT":
		return experiment.PacketSwitchSpec("VCT2", experiment.CutThrough, w, 2, pktLen), nil
	case "CS":
		return experiment.CircuitSpec("CS", w, pktLen), nil
	default:
		return experiment.Spec{}, fmt.Errorf("unknown config %q (FR6, FR13, VC8, VC16, VC32, WH, SAF, VCT, CS, FR6-leadN)", name)
	}
}
