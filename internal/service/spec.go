package service

import (
	"fmt"
	"strings"

	"frfc/internal/experiment"
	"frfc/internal/harness"
)

// SweepRequest is the JSON body of POST /campaigns: a load-grid sweep over
// named configurations, the service analog of a cmd/sweep invocation. Both
// expand through experiment.Grid — the one resolver of config names and the
// one from/to/step accumulation — so a campaign submitted here produces jobs
// with the same content hashes, and therefore the same stored bytes, as the
// one-shot CLI run.
type SweepRequest struct {
	// Name labels the campaign in listings and /status; optional.
	Name string `json:"name,omitempty"`
	// Configs names the specs to sweep, from experiment.ConfigNames.
	Configs []string `json:"configs"`
	// Wiring is "fast" (default) or "leading".
	Wiring string `json:"wiring,omitempty"`
	// PacketLen is the packet length in data flits; 0 means 5.
	PacketLen int `json:"pktlen,omitempty"`

	// Loads is the explicit offered-load grid (fractions of capacity).
	// When empty, From/To/Step expand one.
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
	// results carry the stage decomposition in their Observed.Waterfall
	// sidecar (the seven lifecycle stages summing exactly to the measured
	// latency), exactly as cmd/sweep -waterfall does. Observation-only: the
	// measurement and the job hashes are unchanged, so provenance-on and
	// provenance-off campaigns dedup against each other.
	Waterfall bool `json:"waterfall,omitempty"`

	// Weight is the campaign's share of the shared worker pool under
	// weighted round-robin; 0 means 1. MaxInFlight caps how many of the
	// campaign's jobs may execute at once; 0 means no cap beyond the pool.
	Weight      int `json:"weight,omitempty"`
	MaxInFlight int `json:"maxInFlight,omitempty"`
}

// grid is the request's load grid: everything of it that is not the service's
// own scheduling.
func (r SweepRequest) grid() experiment.Grid {
	return experiment.Grid{
		Configs: r.Configs, Wiring: r.Wiring, PacketLen: r.PacketLen,
		Loads: r.Loads, From: r.From, To: r.To, Step: r.Step,
		Sample: r.Sample, Warmup: r.Warmup, Seed: r.Seed, Routing: r.Routing, Check: r.Check,
	}
}

// normalized fills the defaults of the service's own fields in place and
// validates them; the grid validates itself as jobs() expands it.
func (r *SweepRequest) normalized() error {
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

// jobs validates the request's grid and returns its jobs as a jobGrid.
// Admission control checks grid().Count() against MaxJobsPerCampaign first,
// so nothing is materialized for a grid it rejects.
func (r SweepRequest) jobs() (jobGrid, error) {
	g := r.grid()
	loads, err := g.LoadPoints()
	if err != nil {
		return jobGrid{}, err
	}
	specs, err := g.Specs()
	if err != nil {
		return jobGrid{}, err
	}
	jobs := jobGrid{specs: make([]harness.Job, len(specs)), loads: loads}
	for i, spec := range specs {
		jobs.specs[i] = harness.SpecJob(spec)
	}
	return jobs, nil
}

// jobGrid is a campaign's jobs held as its grid: one harness.SpecJob per spec
// and the load points, so a campaign costs its specs, not specs × loads jobs.
// Job i is spec i/len(loads) at load i%len(loads) — specs outermost, the
// order a cmd/sweep grid builds, so result streams line up with a one-shot
// store written by a single worker.
type jobGrid struct {
	specs []harness.Job
	loads []float64
}

// len is the number of jobs.
func (g jobGrid) len() int { return len(g.specs) * len(g.loads) }

// at builds job i.
func (g jobGrid) at(i int) harness.Job {
	j := g.specs[i/len(g.loads)]
	j.Load = g.loads[i%len(g.loads)]
	return j
}
