// Package timeseries records per-epoch snapshots of a running simulation:
// flit injection and acceptance rates, reservation hit/miss counts, retries,
// the running mean packet latency, and aggregate buffer occupancy. The
// recorder is driven off the same epoch tick as the metrics registry's gauge
// sampling, so each point covers exactly one gauge sample, and it reads only
// counter totals the fabric already maintains — enabling it does not add
// per-cycle work to the hot path, only an O(nodes) sweep once per epoch.
//
// Like metrics.Probe, every method is safe on a nil receiver, so call sites
// pay one pointer test when recording is disabled.
package timeseries

import (
	"encoding/json"
	"fmt"
	"io"

	"frfc/internal/metrics"
	"frfc/internal/sim"
)

// Point is one epoch window's worth of activity. Counter fields are deltas
// over the window, not running totals; MeanLatency and Packets describe the
// measurement state at the window's close.
type Point struct {
	// Epoch is the window's index (0-based); Start is its first cycle and
	// Cycles its length — the final window of a run may be partial.
	Epoch  int64     `json:"epoch"`
	Start  sim.Cycle `json:"start"`
	Cycles sim.Cycle `json:"cycles"`
	// Injected and Ejected count data flits entering and leaving the network
	// during the window. Ejected is the accepted-flit count: summed over all
	// points it equals the run's total ejected flits.
	Injected int64 `json:"injected"`
	Ejected  int64 `json:"ejected"`
	// Reservation-table outcomes, end-to-end retries, and packets failed
	// fast as unreachable (hard-fault scenarios) during the window.
	ResHits     int64 `json:"resHits"`
	ResMisses   int64 `json:"resMisses"`
	Retries     int64 `json:"retries"`
	Unreachable int64 `json:"unreachable,omitempty"`
	// Corrupt counts corrupted flit receptions observed across the fabric
	// during the window (bit-errored deliveries, at every hop they reach).
	Corrupt int64 `json:"corrupt,omitempty"`
	// Packets is the cumulative delivered-packet count at the window's close;
	// MeanLatency is the running mean latency (cycles) over those packets.
	Packets     int64   `json:"packets"`
	MeanLatency float64 `json:"meanLatency"`
	// OccFraction is the fabric-wide buffer fill over the window: occupied
	// buffer slots divided by capacity, aggregated across every sampled
	// bounded pool, in [0,1].
	OccFraction float64 `json:"occFraction"`
}

// InjectedRate is injected flits per cycle over the window.
func (p *Point) InjectedRate() float64 {
	if p.Cycles <= 0 {
		return 0
	}
	return float64(p.Injected) / float64(p.Cycles)
}

// AcceptedRate is ejected (accepted) flits per cycle over the window.
func (p *Point) AcceptedRate() float64 {
	if p.Cycles <= 0 {
		return 0
	}
	return float64(p.Ejected) / float64(p.Cycles)
}

// HitRate is the window's reservation hit fraction, 0 when no reservations
// were attempted.
func (p *Point) HitRate() float64 {
	if n := p.ResHits + p.ResMisses; n > 0 {
		return float64(p.ResHits) / float64(n)
	}
	return 0
}

// totals is a snapshot of the registry's cumulative counters, used to turn
// running totals into per-window deltas.
type totals struct {
	metrics.NodeMetrics        // every node's counters, summed
	occSum, occCapCycles int64 // Σ gauge sums; Σ samples×capacity (bounded pools)
}

func snapshot(reg *metrics.Registry) totals {
	var t totals
	for i := range reg.Nodes {
		n := &reg.Nodes[i]
		t.Add(n)
		for p := range n.Occ {
			if g := &n.Occ[p]; g.Cap > 0 {
				t.occSum += g.Sum
				t.occCapCycles += g.Samples * g.Cap
			}
		}
	}
	return t
}

// Recorder accumulates Points at a fixed epoch. With a positive bound it
// behaves as a ring, discarding the oldest points once full (Dropped reports
// how many); unbounded it appends for the life of the run.
type Recorder struct {
	epoch sim.Cycle
	max   int

	lastCycle sim.Cycle
	last      totals
	idx       int64

	pts     []Point
	head    int // ring read position once len(pts) == max
	dropped int64
}

// New returns a recorder sampling every epoch cycles (non-positive =
// metrics.DefaultEpoch) and retaining at most maxPoints points (non-positive
// = unbounded). The epoch should match the metrics registry's so each window
// covers exactly one occupancy gauge sample.
func New(epoch sim.Cycle, maxPoints int) *Recorder {
	if epoch <= 0 {
		epoch = metrics.DefaultEpoch
	}
	return &Recorder{epoch: epoch, max: maxPoints}
}

// Epoch reports the sampling period in cycles (0 on a nil recorder).
func (r *Recorder) Epoch() sim.Cycle {
	if r == nil {
		return 0
	}
	return r.epoch
}

// Due reports whether cycle now closes an epoch window. Call with the
// post-increment cycle count, mirroring Probe.SampleDue.
func (r *Recorder) Due(now sim.Cycle) bool {
	return r != nil && now > 0 && now%r.epoch == 0
}

// Observe closes the window ending at cycle now, reading cumulative counters
// from reg and the delivered-packet count and running mean latency from the
// caller's latency accumulator. Calls with now not beyond the previous
// observation are ignored, as are nil receivers and registries.
func (r *Recorder) Observe(now sim.Cycle, reg *metrics.Registry, packets int64, meanLatency float64) {
	if r == nil || reg == nil || now <= r.lastCycle {
		return
	}
	r.record(now, snapshot(reg), packets, meanLatency)
}

// Flush records the final, possibly partial, window ending at cycle now.
// Call once after the run's last cycle (drain included) so that per-window
// ejected counts sum to the run's total ejected flits. A no-op when the
// window would be empty.
func (r *Recorder) Flush(now sim.Cycle, reg *metrics.Registry, packets int64, meanLatency float64) {
	r.Observe(now, reg, packets, meanLatency)
}

func (r *Recorder) record(now sim.Cycle, t totals, packets int64, meanLatency float64) {
	p := Point{
		Epoch:       r.idx,
		Start:       r.lastCycle,
		Cycles:      now - r.lastCycle,
		Injected:    t.Injected - r.last.Injected,
		Ejected:     t.Ejected - r.last.Ejected,
		ResHits:     t.ResHits - r.last.ResHits,
		ResMisses:   t.ResMisses - r.last.ResMisses,
		Retries:     t.Retries - r.last.Retries,
		Unreachable: t.Unreachable - r.last.Unreachable,
		Corrupt:     t.Corrupt - r.last.Corrupt,
		Packets:     packets,
		MeanLatency: meanLatency,
	}
	if dc := t.occCapCycles - r.last.occCapCycles; dc > 0 {
		p.OccFraction = float64(t.occSum-r.last.occSum) / float64(dc)
	}
	r.idx++
	r.lastCycle = now
	r.last = t
	if r.max > 0 && len(r.pts) == r.max {
		r.pts[r.head] = p
		r.head = (r.head + 1) % r.max
		r.dropped++
		return
	}
	r.pts = append(r.pts, p)
}

// Len reports the number of retained points.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	return len(r.pts)
}

// Dropped reports how many points a bounded recorder has discarded.
func (r *Recorder) Dropped() int64 {
	if r == nil {
		return 0
	}
	return r.dropped
}

// Points returns the retained points in chronological order. The slice is a
// copy; mutating it does not affect the recorder.
func (r *Recorder) Points() []Point {
	if r == nil || len(r.pts) == 0 {
		return nil
	}
	out := make([]Point, 0, len(r.pts))
	out = append(out, r.pts[r.head:]...)
	out = append(out, r.pts[:r.head]...)
	return out
}

// csvHeader documents every column; derived-rate columns are included so the
// file plots directly without post-processing.
const csvHeader = "epoch,start,cycles,injected,ejected,injected_per_cycle,accepted_per_cycle,res_hits,res_misses,hit_rate,retries,unreachable,corrupt,packets,mean_latency,occ_fraction"

// WriteCSV exports the series as CSV, one row per epoch window. The ejected
// column is the accepted-flit count per window; its sum equals the run's
// total ejected flits when the recorder was flushed and unbounded.
func (r *Recorder) WriteCSV(w io.Writer) error {
	if r == nil {
		return fmt.Errorf("timeseries: nil recorder")
	}
	if _, err := fmt.Fprintln(w, csvHeader); err != nil {
		return err
	}
	for _, p := range r.Points() {
		if _, err := fmt.Fprintf(w, "%d,%d,%d,%d,%d,%.6f,%.6f,%d,%d,%.6f,%d,%d,%d,%d,%.4f,%.6f\n",
			p.Epoch, p.Start, p.Cycles, p.Injected, p.Ejected,
			p.InjectedRate(), p.AcceptedRate(),
			p.ResHits, p.ResMisses, p.HitRate(),
			p.Retries, p.Unreachable, p.Corrupt, p.Packets, p.MeanLatency, p.OccFraction); err != nil {
			return err
		}
	}
	return nil
}

// series is the JSON export shape.
type series struct {
	Epoch   sim.Cycle `json:"epoch"`
	Dropped int64     `json:"dropped,omitempty"`
	Points  []Point   `json:"points"`
}

// WriteJSON exports the series as one indented JSON object holding the epoch
// length, the dropped-point count (bounded recorders), and the points in
// chronological order.
func (r *Recorder) WriteJSON(w io.Writer) error {
	if r == nil {
		return fmt.Errorf("timeseries: nil recorder")
	}
	pts := r.Points()
	if pts == nil {
		pts = []Point{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(series{Epoch: r.epoch, Dropped: r.dropped, Points: pts})
}
