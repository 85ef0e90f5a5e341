package metrics

import (
	"io"

	"frfc/internal/topology"
)

// WritePrometheus exports the registry in Prometheus text exposition format
// (version 0.0.4): per-router counters labelled by node id and mesh
// coordinates, per-output-port link traffic, mean input-buffer occupancy
// fractions for sampled ports, and the run-level cycle count and sampling
// epoch. The receiver must not be mutated concurrently — export a live
// registry through its probe's Snapshot.
func (r *Registry) WritePrometheus(w io.Writer) error {
	e := topology.NewExposition(w)
	for _, c := range counters {
		e.Family(c.name, "counter", c.help)
		for id := range r.Nodes {
			e.Sample(r.Labels(id), *c.at(&r.Nodes[id]))
		}
	}
	// perPort writes one family with a sample per node and port.
	perPort := func(sample func(n *NodeMetrics, p topology.Port, labels string)) {
		for id := range r.Nodes {
			for p := topology.Port(0); p < topology.NumPorts; p++ {
				sample(&r.Nodes[id], p, r.Labels(id, "port", p.String()))
			}
		}
	}
	e.Family("frfc_link_flits_total", "counter", "Data flits sent on this output port.")
	perPort(func(n *NodeMetrics, p topology.Port, labels string) { e.Sample(labels, n.Links[p].Flits) })
	e.Family("frfc_link_ctrl_total", "counter", "Control flits sent on this output port.")
	perPort(func(n *NodeMetrics, p topology.Port, labels string) { e.Sample(labels, n.Links[p].Ctrl) })
	e.Family("frfc_occupancy_mean_fraction", "gauge", "Mean input-buffer occupancy fraction (0..1) for sampled ports.")
	perPort(func(n *NodeMetrics, p topology.Port, labels string) {
		if g := &n.Occ[p]; g.Samples > 0 {
			e.Sample(labels, g.MeanFraction())
		}
	})
	e.Scalar("frfc_cycles", "gauge", "Simulated cycles covered by this registry.", r.Cycles)
	e.Scalar("frfc_epoch", "gauge", "Gauge sampling period in cycles.", r.Epoch)
	return e.Err()
}
