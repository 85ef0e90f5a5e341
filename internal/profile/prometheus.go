package profile

import (
	"io"

	"frfc/internal/topology"
)

// WritePrometheus exports the registry in Prometheus text exposition format
// (version 0.0.4): per-node tick/active-tick counters labelled by component,
// per-node FR phase attribution, per-router idle-fraction gauges, and the
// run-level memory sample aggregates. The receiver must not be mutated
// concurrently — export a live registry through its probe's Snapshot.
func (r *Registry) WritePrometheus(w io.Writer) error {
	e := topology.NewExposition(w)
	e.Family("frfc_profile_ticks_total", "counter", "Simulator ticks executed for this component at this node.")
	for id := range r.Nodes {
		for c := Component(0); c < NumComponents; c++ {
			e.Sample(r.Labels(id, "component", c.String()), r.Nodes[id].Ticks[c])
		}
	}
	e.Family("frfc_profile_active_ticks_total", "counter", "Ticks that performed any work for this component at this node.")
	for id := range r.Nodes {
		for c := Component(0); c < NumComponents; c++ {
			e.Sample(r.Labels(id, "component", c.String()), r.Nodes[id].Active[c])
		}
	}
	e.Family("frfc_profile_phase_work_total", "counter", "FR router work units attributed to this pipeline phase at this node.")
	for id := range r.Nodes {
		for p := Phase(0); p < NumPhases; p++ {
			e.Sample(r.Labels(id, "phase", p.String()), r.Nodes[id].Phases[p])
		}
	}
	e.Family("frfc_profile_idle_fraction", "gauge", "Fraction of this node's router ticks that performed no work.")
	for id := range r.Nodes {
		if n := &r.Nodes[id]; n.Ticks[CompRouter] != 0 {
			e.Sample(r.Labels(id), n.idleFraction())
		}
	}
	e.Scalar("frfc_profile_mem_alloc_bytes_total", "counter", "Heap bytes allocated over the sampled epochs.", r.Mem.AllocBytes)
	e.Scalar("frfc_profile_mem_mallocs_total", "counter", "Heap objects allocated over the sampled epochs.", r.Mem.Mallocs)
	e.Scalar("frfc_profile_mem_gc_total", "counter", "Garbage collections completed over the sampled epochs.", r.Mem.NumGC)
	e.Scalar("frfc_profile_mem_pause_ns_total", "counter", "GC stop-the-world nanoseconds over the sampled epochs.", r.Mem.PauseNs)
	e.Scalar("frfc_profile_mem_epochs", "gauge", "Memory samples folded into this registry.", r.Mem.Epochs)
	e.Scalar("frfc_profile_mem_max_epoch_alloc_bytes", "gauge", "Largest single-epoch allocation delta.", r.Mem.MaxEpochAllocBytes)
	e.Scalar("frfc_profile_cycles", "gauge", "Simulated cycles covered by this profile registry.", r.Cycles)
	return e.Err()
}
