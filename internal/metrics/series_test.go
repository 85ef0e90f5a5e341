package metrics

import (
	"bytes"
	"encoding/json"
	"strconv"
	"strings"
	"testing"

	"frfc/internal/sim"
	"frfc/internal/topology"
)

func TestNilSeriesIsSafe(t *testing.T) {
	var r *Series
	if r.Due(64) {
		t.Fatal("nil series claims a sample is due")
	}
	r.Observe(64, NewRegistry(0), 0, 0)
	if r.Len() != 0 || r.Dropped() != 0 || r.Points() != nil {
		t.Fatal("nil series reports state")
	}
}

func TestSeriesDueCadence(t *testing.T) {
	r := NewSeries(50, 0)
	due := 0
	for now := sim.Cycle(0); now <= 200; now++ {
		if r.Due(now) {
			due++
		}
	}
	if due != 4 {
		t.Fatalf("Due fired %d times in (0,200] with epoch 50, want 4", due)
	}
	if NewSeries(0, 0).epoch != DefaultEpoch {
		t.Fatal("non-positive epoch did not default")
	}
}

func TestSeriesDeltasAndFlush(t *testing.T) {
	reg := NewRegistry(64)
	reg.Init(2)
	r := NewSeries(64, 0)

	// Window 0: 10 injected, 7 ejected, 3 hits, 1 miss.
	n := &reg.Nodes[0]
	n.Injected, n.Ejected, n.ResHits, n.ResMisses = 10, 7, 3, 1
	n.Occ[topology.East].Sample(4, 8)
	r.Observe(64, reg, 2, 30)

	// Window 1: 5 more injected, 6 more ejected, 1 retry.
	n.Injected, n.Ejected, n.Retries = 15, 13, 1
	n.Occ[topology.East].Sample(8, 8)
	r.Observe(128, reg, 4, 32)

	// Partial final window: 2 more ejected during drain.
	n.Ejected = 15
	r.Observe(150, reg, 5, 33)

	pts := r.Points()
	if len(pts) != 3 {
		t.Fatalf("got %d points, want 3", len(pts))
	}
	p0, p1, p2 := pts[0], pts[1], pts[2]
	if p0.Injected != 10 || p0.Ejected != 7 || p0.ResHits != 3 || p0.ResMisses != 1 {
		t.Fatalf("window 0 deltas wrong: %+v", p0)
	}
	if p0.OccFraction != 0.5 {
		t.Fatalf("window 0 occupancy = %v, want 0.5", p0.OccFraction)
	}
	if p1.Injected != 5 || p1.Ejected != 6 || p1.Retries != 1 || p1.Start != 64 || p1.Cycles != 64 {
		t.Fatalf("window 1 deltas wrong: %+v", p1)
	}
	// Window 1's occupancy covers exactly the second gauge sample.
	if p1.OccFraction != 1.0 {
		t.Fatalf("window 1 occupancy = %v, want 1.0", p1.OccFraction)
	}
	if p2.Cycles != 22 || p2.Ejected != 2 || p2.Packets != 5 || p2.MeanLatency != 33 {
		t.Fatalf("partial final window wrong: %+v", p2)
	}

	// The acceptance invariant: per-window ejected sums to the registry total.
	var sum int64
	for _, p := range pts {
		sum += p.Ejected
	}
	if sum != n.Ejected {
		t.Fatalf("ejected column sums to %d, want total %d", sum, n.Ejected)
	}

	// Closing the final window again, with no new cycles, must not add an
	// empty window.
	r.Observe(150, reg, 5, 33)
	if r.Len() != 3 {
		t.Fatal("an empty window was appended")
	}
}

func TestBoundedSeriesDropsOldest(t *testing.T) {
	reg := NewRegistry(64)
	reg.Init(2)
	r := NewSeries(64, 3)
	for i := 1; i <= 5; i++ {
		reg.Nodes[0].Injected = int64(10 * i)
		r.Observe(sim.Cycle(64*i), reg, 0, 0)
	}
	if r.Len() != 3 || r.Dropped() != 2 {
		t.Fatalf("len=%d dropped=%d, want 3 and 2", r.Len(), r.Dropped())
	}
	pts := r.Points()
	if pts[0].Epoch != 2 || pts[1].Epoch != 3 || pts[2].Epoch != 4 {
		t.Fatalf("ring order wrong: %+v", pts)
	}
	// Each retained window still holds its own delta, not a running total.
	for _, p := range pts {
		if p.Injected != 10 {
			t.Fatalf("window %d delta = %d, want 10", p.Epoch, p.Injected)
		}
	}
}

func TestSeriesWriteCSV(t *testing.T) {
	reg := NewRegistry(64)
	reg.Init(2)
	r := NewSeries(64, 0)
	reg.Nodes[0].Injected, reg.Nodes[0].Ejected = 32, 16
	reg.Nodes[0].ResHits, reg.Nodes[0].ResMisses = 3, 1
	r.Observe(64, reg, 4, 25.5)

	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("CSV has %d lines, want header + 1 row:\n%s", len(lines), buf.String())
	}
	header := strings.Split(lines[0], ",")
	row := strings.Split(lines[1], ",")
	if len(row) != len(header) {
		t.Fatalf("row has %d fields, header %d", len(row), len(header))
	}
	col := func(name string) string {
		for i, h := range header {
			if h == name {
				return row[i]
			}
		}
		t.Fatalf("no column %q in %v", name, header)
		return ""
	}
	if col("ejected") != "16" || col("injected") != "32" {
		t.Fatalf("flit columns wrong: %s", lines[1])
	}
	if v, _ := strconv.ParseFloat(col("accepted_per_cycle"), 64); v != 0.25 {
		t.Fatalf("accepted_per_cycle = %v, want 0.25", v)
	}
	if v, _ := strconv.ParseFloat(col("hit_rate"), 64); v != 0.75 {
		t.Fatalf("hit_rate = %v, want 0.75", v)
	}
	if col("mean_latency") != "25.5000" {
		t.Fatalf("mean_latency = %q", col("mean_latency"))
	}
}

func TestSeriesWriteJSONRoundTrips(t *testing.T) {
	reg := NewRegistry(64)
	reg.Init(2)
	r := NewSeries(64, 0)
	reg.Nodes[0].Ejected = 9
	r.Observe(64, reg, 1, 12)

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var back struct {
		Epoch  sim.Cycle `json:"epoch"`
		Points []Point   `json:"points"`
	}
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("JSON does not round-trip: %v", err)
	}
	if back.Epoch != 64 || len(back.Points) != 1 || back.Points[0].Ejected != 9 {
		t.Fatalf("round-trip lost data: %+v", back)
	}

	// An empty series still emits a valid document with an empty array.
	buf.Reset()
	if err := NewSeries(64, 0).WriteJSON(&buf); err != nil {
		t.Fatalf("empty WriteJSON: %v", err)
	}
	if !strings.Contains(buf.String(), `"points": []`) {
		t.Fatalf("empty series JSON lacks points array:\n%s", buf.String())
	}
}
