// Package topology defines the network topologies the simulator runs on.
// The paper evaluates an 8×8 two-dimensional mesh; the implementation is a
// general k-ary 2-mesh so that tests can use smaller instances and users can
// scale up.
//
// It also holds what every collector over a mesh shares, because both start
// from the node id ↔ (x, y) mapping this package owns: Grid, the per-node
// layout a collector embeds, and Exposition, the one writer of the
// Prometheus text format with its node/x/y labels.
package topology

import "fmt"

// NodeID identifies a router/terminal pair. IDs are assigned in row-major
// order: id = y*k + x.
type NodeID int

// Coord is a node's (column, row) position in the mesh.
type Coord struct {
	X, Y int
}

// Port identifies one of a router's five ports. The four direction ports
// connect to neighboring routers; Local connects to the node's network
// interface (injection on the input side, ejection on the output side).
type Port int

// Router ports, in fixed arbitration-independent order.
const (
	East Port = iota
	West
	North
	South
	Local
	NumPorts // number of ports on a mesh router
)

// DirectionPorts is the number of inter-router ports (all ports but Local).
const DirectionPorts = int(Local)

// String returns the conventional compass name of the port.
func (p Port) String() string {
	switch p {
	case East:
		return "E"
	case West:
		return "W"
	case North:
		return "N"
	case South:
		return "S"
	case Local:
		return "L"
	default:
		return fmt.Sprintf("Port(%d)", int(p))
	}
}

// Opposite returns the port on the neighboring router that faces back along
// the same link: a flit leaving through East arrives on the neighbor's West
// input. It panics for Local, which has no opposite.
func (p Port) Opposite() Port {
	switch p {
	case East:
		return West
	case West:
		return East
	case North:
		return South
	case South:
		return North
	default:
		panic("topology: Opposite of non-direction port " + p.String())
	}
}

// Mesh is a k×k two-dimensional mesh with bidirectional links between
// orthogonal neighbors.
type Mesh struct {
	k int
}

// NewMesh returns a k-ary 2-mesh. It panics unless k >= 2.
func NewMesh(k int) Mesh {
	if k < 2 {
		panic("topology: mesh radix must be at least 2")
	}
	return Mesh{k: k}
}

// Radix reports k, the number of nodes per dimension.
func (m Mesh) Radix() int { return m.k }

// N reports the total node count, k².
func (m Mesh) N() int { return m.k * m.k }

// Coord converts a NodeID to mesh coordinates. It panics on an out-of-range
// ID.
func (m Mesh) Coord(id NodeID) Coord {
	if int(id) < 0 || int(id) >= m.N() {
		panic(fmt.Sprintf("topology: node %d out of range for %d-node mesh", id, m.N()))
	}
	return CoordOf(int(id), m.k)
}

// CoordOf is the (column, row) of node id in a row-major layout radix nodes
// wide: Coord for a holder that knows a radix but has no Mesh, such as a
// collector labelling its nodes. A non-positive radix — a layout never sized —
// puts every node on row 0.
func CoordOf(id, radix int) Coord {
	if radix <= 0 {
		return Coord{X: id}
	}
	return Coord{X: id % radix, Y: id / radix}
}

// ID converts mesh coordinates to a NodeID. It panics on out-of-range
// coordinates.
func (m Mesh) ID(c Coord) NodeID {
	if c.X < 0 || c.X >= m.k || c.Y < 0 || c.Y >= m.k {
		panic(fmt.Sprintf("topology: coordinate %+v out of range for radix %d", c, m.k))
	}
	return NodeID(c.Y*m.k + c.X)
}

// Neighbor returns the node reached by leaving id through direction port p,
// and whether such a neighbor exists (mesh edges have no wraparound).
// It panics if p is Local.
func (m Mesh) Neighbor(id NodeID, p Port) (NodeID, bool) {
	c := m.Coord(id)
	switch p {
	case East:
		c.X++
	case West:
		c.X--
	case North:
		c.Y--
	case South:
		c.Y++
	default:
		panic("topology: Neighbor of non-direction port " + p.String())
	}
	if c.X < 0 || c.X >= m.k || c.Y < 0 || c.Y >= m.k {
		return 0, false
	}
	return m.ID(c), true
}

// HasLink reports whether the router at id has a neighbor through port p.
func (m Mesh) HasLink(id NodeID, p Port) bool {
	_, ok := m.Neighbor(id, p)
	return ok
}

// Hops returns the minimal hop count between two nodes (Manhattan distance).
func (m Mesh) Hops(a, b NodeID) int {
	ca, cb := m.Coord(a), m.Coord(b)
	return abs(ca.X-cb.X) + abs(ca.Y-cb.Y)
}

// AvgHopsUniform returns the expected hop count between a uniformly random
// ordered pair of distinct nodes. For a k-ary 2-mesh the per-dimension mean
// distance over all (not necessarily distinct) pairs is (k²−1)/(3k); the
// distinct-pair value follows by conditioning out the zero-distance pairs.
func (m Mesh) AvgHopsUniform() float64 {
	k := float64(m.k)
	n := k * k
	// Sum over all ordered pairs (including self-pairs) of |x1-x2| per
	// dimension is k * k² * (k²−1)/(3k)… computed directly instead:
	perDim := (k*k - 1) / (3 * k) // mean over all pairs incl. self
	allPairs := 2 * perDim        // two dimensions
	// Exclude the n self pairs (distance 0) from the n² total.
	return allPairs * n * n / (n*n - n)
}

// CapacityPerNode returns the saturation injection bandwidth per node, in
// flits/cycle, implied by the bisection bound under uniform random traffic.
// A k×k mesh has 2k unidirectional bisection channels; uniform traffic sends
// half of all injected flits across the bisection, so with channel bandwidth
// of one flit/cycle each node may inject at most 4/k flits/cycle. The paper's
// "offered traffic as % of capacity" is a fraction of this value (0.5
// flits/node/cycle for the 8×8 mesh).
func (m Mesh) CapacityPerNode() float64 {
	return 4 / float64(m.k)
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
