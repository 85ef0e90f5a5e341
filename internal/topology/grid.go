package topology

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"frfc/internal/sim"
)

// DefaultEpoch is the sampling period, in cycles, of a grid created with a
// non-positive one; every collector takes it from here, so they all sample
// on the same tick.
const DefaultEpoch = 64

// Grid is the layout every per-node collector shares: one N per node of a k×k
// mesh, indexed by NodeID, with the sampling epoch and the run length. A
// collector embeds a Grid of its node type (metrics.Registry,
// profile.Registry); encoding/json flattens the embedded fields in place, so
// the collector's JSON opens with these four.
type Grid[N any] struct {
	// Epoch is the sampling period in cycles.
	Epoch sim.Cycle `json:"epoch"`
	// Radix is the mesh radix k (k×k nodes); Cycles is the simulated run
	// length recorded at export time.
	Radix  int       `json:"radix"`
	Cycles sim.Cycle `json:"cycles"`
	Nodes  []N       `json:"nodes"`
}

// NewGrid returns an empty grid sampling every epoch cycles (non-positive =
// DefaultEpoch). Node storage is sized on Init.
func NewGrid[N any](epoch sim.Cycle) Grid[N] {
	if epoch <= 0 {
		epoch = DefaultEpoch
	}
	return Grid[N]{Epoch: epoch}
}

// Init sizes the grid for a k×k mesh. It is idempotent and keeps existing
// counts when already sized.
func (g *Grid[N]) Init(radix int) {
	if radix > 0 {
		g.grow(radix * radix)
		g.Radix = radix
	}
}

// grow makes room for at least n nodes, keeping the ones already there.
func (g *Grid[N]) grow(n int) {
	if n > len(g.Nodes) {
		nodes := make([]N, n)
		copy(nodes, g.Nodes)
		g.Nodes = nodes
	}
}

// At returns the node's entry, growing the grid if an ID beyond the
// initialised size appears (defensive; normal paths Init first). Every
// recording call goes through it, and it is small enough to inline into each.
func (g *Grid[N]) At(node int) *N {
	if node >= len(g.Nodes) {
		g.grow(node + 1)
	}
	return &g.Nodes[node]
}

// Clone returns a deep copy of the grid, safe to hand to another goroutine
// while the original keeps accumulating.
func (g *Grid[N]) Clone() Grid[N] {
	c := *g
	c.Nodes = append([]N(nil), g.Nodes...)
	return c
}

// Merge folds another grid into this one: the radix takes the larger, Cycles
// accumulate (the merged grid describes the union of simulated work), and add
// folds each of o's nodes into its counterpart here.
func (g *Grid[N]) Merge(o *Grid[N], add func(dst, src *N)) {
	g.Radix = max(g.Radix, o.Radix)
	g.Cycles += o.Cycles
	g.grow(len(o.Nodes))
	for i := range o.Nodes {
		add(&g.Nodes[i], &o.Nodes[i])
	}
}

// Coord is the node's mesh coordinate under the grid's radix.
func (g *Grid[N]) Coord(node int) Coord { return CoordOf(node, g.Radix) }

// WriteCSV writes header, a comment line documenting the value, then one
// value per node as a k×k grid of %.4f cells, one line per mesh row with y
// increasing downward, so the file reads as a heatmap of the physical layout.
func (g *Grid[N]) WriteCSV(w io.Writer, header string, cell func(*N) float64) error {
	if g.Radix <= 0 {
		return fmt.Errorf("topology: grid not initialised (radix %d)", g.Radix)
	}
	var b bytes.Buffer
	fmt.Fprintln(&b, header)
	id := 0
	for y := 0; y < g.Radix; y++ {
		for x := 0; x < g.Radix; x++ {
			if x > 0 {
				b.WriteByte(',')
			}
			var v float64
			if id < len(g.Nodes) {
				v = cell(&g.Nodes[id])
			}
			fmt.Fprintf(&b, "%.4f", v)
			id++
		}
		b.WriteByte('\n')
	}
	_, err := w.Write(b.Bytes())
	return err
}

// WriteJSON exports a collector — a struct embedding a Grid — as one indented
// JSON object: the grid's four fields, then whatever the collector declares.
func WriteJSON(w io.Writer, collector any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(collector)
}
