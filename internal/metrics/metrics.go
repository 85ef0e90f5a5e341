// Package metrics is a per-router counter and gauge registry for the
// simulated fabrics. Routers and network interfaces increment counters
// (reservation-table hits/misses, late reservations, arbitration conflicts,
// credit stalls, retries, NACKs) and contribute link-utilization tallies;
// buffer occupancy is sampled on a configurable epoch. The registry exports
// as JSON for machine consumption and as per-node CSV heatmaps for a quick
// visual read of where a mesh is congested.
//
// Instrumentation goes through Probe, whose methods are safe — and free of
// allocation — on a nil receiver, so a disabled probe costs the fabric hot
// path one pointer test per site.
package metrics

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"frfc/internal/sim"
	"frfc/internal/topology"
)

// Gauge accumulates epoch samples of a bounded quantity such as buffer
// occupancy.
type Gauge struct {
	// Samples is how many times the gauge was read; Sum and Max aggregate
	// the sampled values; Cap is the quantity's bound (last seen).
	Samples int64 `json:"samples"`
	Sum     int64 `json:"sum"`
	Max     int64 `json:"max"`
	Cap     int64 `json:"cap"`
}

// Sample records one observation.
func (g *Gauge) Sample(used, capacity int) {
	g.Samples++
	g.Sum += int64(used)
	if int64(used) > g.Max {
		g.Max = int64(used)
	}
	g.Cap = int64(capacity)
}

// Mean is the average sampled value, 0 with no samples.
func (g *Gauge) Mean() float64 {
	if g.Samples == 0 {
		return 0
	}
	return float64(g.Sum) / float64(g.Samples)
}

// MeanFraction is Mean divided by capacity, in [0,1]; 0 when unbounded or
// unsampled.
func (g *Gauge) MeanFraction() float64 {
	if g.Samples == 0 || g.Cap <= 0 {
		return 0
	}
	return g.Mean() / float64(g.Cap)
}

// LinkStats tallies traffic leaving a router through one output port.
type LinkStats struct {
	// Flits counts data flits sent; Ctrl counts control flits.
	Flits int64 `json:"flits"`
	Ctrl  int64 `json:"ctrl"`
}

// NodeMetrics is one router's counters, indexed by the router's NodeID in
// the registry.
type NodeMetrics struct {
	// Reservation-table outcomes at this router: a hit schedules the
	// requested departures, a miss leaves the control flit to retry next
	// cycle, and a late reservation is a data flit arriving before the
	// reservation its control flit made (it parks).
	ResHits          int64 `json:"resHits"`
	ResMisses        int64 `json:"resMisses"`
	LateReservations int64 `json:"lateReservations"`
	// ArbConflicts counts arbitration losses (another requester took the
	// output this cycle); CreditStalls counts cycles a winner could not
	// proceed for lack of downstream credit or link bandwidth.
	ArbConflicts int64 `json:"arbConflicts"`
	CreditStalls int64 `json:"creditStalls"`
	// Recovery activity attributed to this node's NI: end-to-end retries
	// issued, loss detections (NACK path), and packets failed fast because
	// a hard fault disconnected their destination.
	Retries     int64 `json:"retries"`
	Nacks       int64 `json:"nacks"`
	Unreachable int64 `json:"unreachable,omitempty"`
	// Corrupt counts corrupted flit receptions observed at this node: a
	// bit-errored data or control flit arriving at one of the router's
	// inputs, counted at every hop it survives and whether or not the hop
	// CRC then catches it.
	Corrupt int64 `json:"corrupt,omitempty"`
	// Injected and Ejected count data flits entering and leaving the
	// network at this node.
	Injected int64 `json:"injected"`
	Ejected  int64 `json:"ejected"`
	// Links is per-output-port traffic; Occ is the sampled occupancy of
	// each input port's buffer pool.
	Links [topology.NumPorts]LinkStats `json:"links"`
	Occ   [topology.NumPorts]Gauge     `json:"occ"`
}

// counters lists the scalar counters of a NodeMetrics once: the family each
// is exposed as, its help text, and the field that holds it. Everything that
// treats the counters alike — active, add, the exposition — walks this list,
// so a counter added to the struct and to the list is merged and exposed;
// TestCounterListCoversEveryField holds the list to the struct.
var counters = [...]struct {
	name, help string
	at         func(*NodeMetrics) *int64
}{
	{"frfc_res_hits_total", "Reservation-table hits at this router.", func(n *NodeMetrics) *int64 { return &n.ResHits }},
	{"frfc_res_misses_total", "Reservation-table misses at this router.", func(n *NodeMetrics) *int64 { return &n.ResMisses }},
	{"frfc_late_reservations_total", "Data flits that arrived before their reservation.", func(n *NodeMetrics) *int64 { return &n.LateReservations }},
	{"frfc_arb_conflicts_total", "Arbitration losses at this router.", func(n *NodeMetrics) *int64 { return &n.ArbConflicts }},
	{"frfc_credit_stalls_total", "Cycles an arbitration winner stalled on credit or link bandwidth.", func(n *NodeMetrics) *int64 { return &n.CreditStalls }},
	{"frfc_retries_total", "End-to-end packet retries issued by this node's NI.", func(n *NodeMetrics) *int64 { return &n.Retries }},
	{"frfc_nacks_total", "Loss detections (NACK path) at this node's NI.", func(n *NodeMetrics) *int64 { return &n.Nacks }},
	{"frfc_unreachable_total", "Packets failed fast at this node's NI because a hard fault disconnected their destination.", func(n *NodeMetrics) *int64 { return &n.Unreachable }},
	{"frfc_corrupt_flits_total", "Corrupted flit receptions (data or control) observed at this router's inputs.", func(n *NodeMetrics) *int64 { return &n.Corrupt }},
	{"frfc_injected_flits_total", "Data flits injected into the network at this node.", func(n *NodeMetrics) *int64 { return &n.Injected }},
	{"frfc_ejected_flits_total", "Data flits ejected from the network at this node.", func(n *NodeMetrics) *int64 { return &n.Ejected }},
}

// active reports whether the node recorded anything at all.
func (n *NodeMetrics) active() bool {
	for _, c := range counters {
		if *c.at(n) != 0 {
			return true
		}
	}
	for p := range n.Links {
		if n.Links[p].Flits|n.Links[p].Ctrl != 0 {
			return true
		}
	}
	return false
}

// Add folds another node's counts into this one: counters and gauge
// accumulators add, gauge maxima and capacities take the larger.
func (n *NodeMetrics) Add(o *NodeMetrics) {
	for _, c := range counters {
		*c.at(n) += *c.at(o)
	}
	for p := range n.Links {
		n.Links[p].Flits += o.Links[p].Flits
		n.Links[p].Ctrl += o.Links[p].Ctrl
		dg, sg := &n.Occ[p], &o.Occ[p]
		dg.Samples += sg.Samples
		dg.Sum += sg.Sum
		dg.Max = max(dg.Max, sg.Max)
		dg.Cap = max(dg.Cap, sg.Cap)
	}
}

// DefaultEpoch is the sampling period, in cycles, used when a registry is
// created with a non-positive one.
const DefaultEpoch = topology.DefaultEpoch

// Registry holds every router's metrics for one simulated network, laid out
// as a topology.Grid: Epoch is the gauge sampling period.
type Registry struct {
	topology.Grid[NodeMetrics]
}

// NewRegistry returns an empty registry sampling gauges every epoch cycles
// (non-positive = DefaultEpoch). Node storage is sized on Init.
func NewRegistry(epoch sim.Cycle) *Registry {
	return &Registry{Grid: topology.NewGrid[NodeMetrics](epoch)}
}

// Merge folds another registry's counts into this one, node for node (see
// NodeMetrics.Add) under the grid's layout merge. Merging nil is a no-op.
func (r *Registry) Merge(o *Registry) {
	if r == nil || o == nil {
		return
	}
	r.Grid.Merge(&o.Grid, (*NodeMetrics).Add)
}

// WriteOccupancyCSV writes a k×k grid of mean input-buffer occupancy
// fractions (0..1), one row per mesh row, matching the physical layout so
// the file reads as a heatmap. A leading comment line documents the field.
func (r *Registry) WriteOccupancyCSV(w io.Writer) error {
	return r.WriteCSV(w, "# mean input-buffer occupancy fraction per router (rows = mesh rows, y increasing downward)",
		func(n *NodeMetrics) float64 {
			var sum float64
			var ports int
			for p := 0; p < int(topology.NumPorts); p++ {
				if n.Occ[p].Samples > 0 {
					sum += n.Occ[p].MeanFraction()
					ports++
				}
			}
			if ports == 0 {
				return 0
			}
			return sum / float64(ports)
		})
}

// WriteUtilizationCSV writes a k×k grid of mean outbound link utilization:
// data flits sent on the router's direction ports divided by
// cycles × direction-port count. Local-port (ejection) traffic is excluded
// so the number reads as fabric-link load.
func (r *Registry) WriteUtilizationCSV(w io.Writer) error {
	return r.WriteCSV(w, "# mean outbound link utilization per router (data flits / cycle / direction link)",
		func(n *NodeMetrics) float64 {
			if r.Cycles <= 0 {
				return 0
			}
			var flits int64
			for p := 0; p < topology.DirectionPorts; p++ {
				flits += n.Links[p].Flits
			}
			return float64(flits) / (float64(r.Cycles) * float64(topology.DirectionPorts))
		})
}

// WedgeSummary renders the per-router counter lines of a watchdog snapshot:
// one line per active router, stalled routers first, each showing the
// counters that explain why traffic stopped moving.
func (r *Registry) WedgeSummary(stalled []int) string {
	if r == nil {
		return ""
	}
	stall := map[int]bool{}
	for _, id := range stalled {
		stall[id] = true
	}
	ids := make([]int, 0, len(r.Nodes))
	for id := range r.Nodes {
		if r.Nodes[id].active() || stall[id] {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool {
		if stall[ids[i]] != stall[ids[j]] {
			return stall[ids[i]]
		}
		return ids[i] < ids[j]
	})
	var b strings.Builder
	for _, id := range ids {
		n := &r.Nodes[id]
		fmt.Fprintf(&b, "router %d:", id)
		if stall[id] {
			b.WriteString(" STALLED")
		}
		fmt.Fprintf(&b, " res %d/%d hit/miss, late %d, arb-conflicts %d, credit-stalls %d",
			n.ResHits, n.ResMisses, n.LateReservations, n.ArbConflicts, n.CreditStalls)
		if n.Retries != 0 || n.Nacks != 0 {
			fmt.Fprintf(&b, ", retries %d, nacks %d", n.Retries, n.Nacks)
		}
		if n.Unreachable != 0 {
			fmt.Fprintf(&b, ", unreachable %d", n.Unreachable)
		}
		if n.Corrupt != 0 {
			fmt.Fprintf(&b, ", corrupt %d", n.Corrupt)
		}
		fmt.Fprintf(&b, ", inj %d, ej %d", n.Injected, n.Ejected)
		var occ []string
		for p := 0; p < int(topology.NumPorts); p++ {
			if g := &n.Occ[p]; g.Samples > 0 && g.Sum > 0 {
				occ = append(occ, fmt.Sprintf("%s %.0f%%", topology.Port(p), 100*g.MeanFraction()))
			}
		}
		if len(occ) > 0 {
			fmt.Fprintf(&b, ", occ[%s]", strings.Join(occ, " "))
		}
		b.WriteString("\n")
	}
	return b.String()
}
