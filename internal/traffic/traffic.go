// Package traffic generates the synthetic workloads driving the simulator.
// The paper evaluates uniformly distributed traffic to random destinations
// injected by a constant-rate source; additional standard patterns
// (transpose, bit-complement, tornado, hotspot) and a Bernoulli process are
// provided for wider experimentation.
package traffic

import (
	"fmt"

	"frfc/internal/noc"
	"frfc/internal/sim"
	"frfc/internal/topology"
)

// Pattern chooses a destination for each generated packet.
type Pattern interface {
	// Dest returns the destination for a packet injected at src. It must
	// never return src itself.
	Dest(rng *sim.RNG, m topology.Mesh, src topology.NodeID) topology.NodeID
	// Name identifies the pattern in reports.
	Name() string
}

// Uniform sends every packet to a destination drawn uniformly from all other
// nodes — the workload of every experiment in the paper.
type Uniform struct{}

// Dest implements Pattern.
func (Uniform) Dest(rng *sim.RNG, m topology.Mesh, src topology.NodeID) topology.NodeID {
	d := topology.NodeID(rng.Intn(m.N() - 1))
	if d >= src {
		d++
	}
	return d
}

// Name implements Pattern.
func (Uniform) Name() string { return "uniform" }

// Transpose sends node (x, y) to node (y, x). Nodes on the diagonal, whose
// transpose is themselves, fall back to a uniform destination.
type Transpose struct{}

// Dest implements Pattern.
func (Transpose) Dest(rng *sim.RNG, m topology.Mesh, src topology.NodeID) topology.NodeID {
	c := m.Coord(src)
	d := m.ID(topology.Coord{X: c.Y, Y: c.X})
	if d == src {
		return Uniform{}.Dest(rng, m, src)
	}
	return d
}

// Name implements Pattern.
func (Transpose) Name() string { return "transpose" }

// BitComplement sends node (x, y) to (k−1−x, k−1−y).
type BitComplement struct{}

// Dest implements Pattern.
func (BitComplement) Dest(rng *sim.RNG, m topology.Mesh, src topology.NodeID) topology.NodeID {
	c := m.Coord(src)
	k := m.Radix()
	d := m.ID(topology.Coord{X: k - 1 - c.X, Y: k - 1 - c.Y})
	if d == src {
		return Uniform{}.Dest(rng, m, src)
	}
	return d
}

// Name implements Pattern.
func (BitComplement) Name() string { return "bitcomp" }

// Tornado sends node (x, y) halfway around each dimension: to
// ((x+⌈k/2⌉−1) mod k, y). On a mesh (no wraparound) this creates maximal
// link contention along rows.
type Tornado struct{}

// Dest implements Pattern.
func (Tornado) Dest(rng *sim.RNG, m topology.Mesh, src topology.NodeID) topology.NodeID {
	c := m.Coord(src)
	k := m.Radix()
	d := m.ID(topology.Coord{X: (c.X + (k+1)/2 - 1) % k, Y: c.Y})
	if d == src {
		return Uniform{}.Dest(rng, m, src)
	}
	return d
}

// Name implements Pattern.
func (Tornado) Name() string { return "tornado" }

// Neighbor sends node (x, y) to (x+1 mod k, y): nearest-neighbor traffic,
// the friendliest standard pattern.
type Neighbor struct{}

// Dest implements Pattern.
func (Neighbor) Dest(rng *sim.RNG, m topology.Mesh, src topology.NodeID) topology.NodeID {
	c := m.Coord(src)
	d := m.ID(topology.Coord{X: (c.X + 1) % m.Radix(), Y: c.Y})
	if d == src {
		return Uniform{}.Dest(rng, m, src)
	}
	return d
}

// Name implements Pattern.
func (Neighbor) Name() string { return "neighbor" }

// BitReverse sends node i to the node whose index is i's bit-reversal (over
// log2 N bits). Meaningful when the node count is a power of two; other
// radices fall back to uniform.
type BitReverse struct{}

// Dest implements Pattern.
func (BitReverse) Dest(rng *sim.RNG, m topology.Mesh, src topology.NodeID) topology.NodeID {
	n := m.N()
	if n&(n-1) != 0 {
		return Uniform{}.Dest(rng, m, src)
	}
	bits := 0
	for v := n - 1; v > 0; v >>= 1 {
		bits++
	}
	rev := 0
	for b := 0; b < bits; b++ {
		if int(src)&(1<<b) != 0 {
			rev |= 1 << (bits - 1 - b)
		}
	}
	if rev == int(src) {
		return Uniform{}.Dest(rng, m, src)
	}
	return topology.NodeID(rev)
}

// Name implements Pattern.
func (BitReverse) Name() string { return "bitrev" }

// Shuffle sends node i to node (2i mod N-1) (perfect shuffle; node N-1 maps
// to itself and falls back to uniform), a classic adversary for low-diameter
// networks.
type Shuffle struct{}

// Dest implements Pattern.
func (Shuffle) Dest(rng *sim.RNG, m topology.Mesh, src topology.NodeID) topology.NodeID {
	n := m.N()
	if int(src) == n-1 {
		return Uniform{}.Dest(rng, m, src)
	}
	d := topology.NodeID((2 * int(src)) % (n - 1))
	if d == src {
		return Uniform{}.Dest(rng, m, src)
	}
	return d
}

// Name implements Pattern.
func (Shuffle) Name() string { return "shuffle" }

// Hotspot directs a fraction of traffic at a single hot node and the rest
// uniformly.
type Hotspot struct {
	Hot      topology.NodeID
	Fraction float64 // probability a packet targets Hot
}

// Dest implements Pattern.
func (h Hotspot) Dest(rng *sim.RNG, m topology.Mesh, src topology.NodeID) topology.NodeID {
	if src != h.Hot && rng.Bool(h.Fraction) {
		return h.Hot
	}
	return Uniform{}.Dest(rng, m, src)
}

// Name implements Pattern.
func (h Hotspot) Name() string { return fmt.Sprintf("hotspot(%d,%.2f)", h.Hot, h.Fraction) }

// Process decides, cycle by cycle, when a node generates a packet.
type Process interface {
	// Inject reports whether a new packet should be created at cycle now.
	Inject(rng *sim.RNG, now sim.Cycle) bool
	// Name identifies the process in reports.
	Name() string
}

// Bernoulli injects a packet each cycle with independent probability Rate
// (packets/cycle), giving geometric inter-arrival times.
type Bernoulli struct {
	Rate float64
}

// Inject implements Process.
func (b Bernoulli) Inject(rng *sim.RNG, now sim.Cycle) bool {
	return rng.Bool(b.Rate)
}

// Name implements Process.
func (b Bernoulli) Name() string { return fmt.Sprintf("bernoulli(%.4f)", b.Rate) }

// ConstantRate is the paper's "constant rate source": packets are generated
// at a fixed average rate with deterministic spacing, implemented as an
// accumulator so non-integral periods are honored exactly in the long run.
// Each node's accumulator starts at a random phase so sources across the
// network are not synchronized.
type ConstantRate struct {
	Rate float64 // packets per cycle

	phase   float64
	started bool
}

// Inject implements Process.
func (c *ConstantRate) Inject(rng *sim.RNG, now sim.Cycle) bool {
	if c.Rate <= 0 {
		return false
	}
	if !c.started {
		c.phase = rng.Float64()
		c.started = true
	}
	c.phase += c.Rate
	if c.phase >= 1 {
		c.phase -= 1
		return true
	}
	return false
}

// Name implements Process.
func (c *ConstantRate) Name() string { return fmt.Sprintf("constant(%.4f)", c.Rate) }

// Generator produces the packet stream for one node.
type Generator struct {
	mesh    topology.Mesh
	src     topology.NodeID
	pattern Pattern
	process Process
	rng     *sim.RNG
	pktLen  int
	nextID  func() noc.PacketID
	packets *packets
}

// packets is where generators get their packets: carved from arrays rather
// than allocated one by one. An array is as long as everything carved before
// it — so a run that sends three packets pays for a handful and one that
// sends thousands for a few arrays — within these bounds. The generators of
// one run (NewGenerators) share one, so what the run allocates follows the
// packets it sends and not the nodes it has.
type packets struct {
	chunk  []noc.Packet // the unused rest of the newest array
	carved int          // packets handed out of all of them
}

const (
	firstChunk = 8
	maxChunk   = 256
)

func (a *packets) next() *noc.Packet {
	if len(a.chunk) == 0 {
		a.chunk = make([]noc.Packet, min(max(a.carved, firstChunk), maxChunk))
	}
	p := &a.chunk[0]
	a.chunk = a.chunk[1:]
	a.carved++
	return p
}

// NewGenerator returns a per-node packet generator. nextID must hand out
// globally unique packet IDs (the network assembly shares one counter across
// all generators).
func NewGenerator(m topology.Mesh, src topology.NodeID, pat Pattern, proc Process, rng *sim.RNG, pktLen int, nextID func() noc.PacketID) *Generator {
	g := newGenerator(m, src, pat, proc, rng, pktLen, nextID, new(packets))
	return &g
}

// NewGenerators returns the generators of every node of the mesh in one
// array, carving their packets from the same arrays. Node id injects by
// proc(id) and draws from rngs[id].
func NewGenerators(m topology.Mesh, pat Pattern, proc func(topology.NodeID) Process, rngs []sim.RNG, pktLen int, nextID func() noc.PacketID) []Generator {
	gens := make([]Generator, m.N())
	shared := new(packets)
	for id := range gens {
		gens[id] = newGenerator(m, topology.NodeID(id), pat, proc(topology.NodeID(id)), &rngs[id], pktLen, nextID, shared)
	}
	return gens
}

func newGenerator(m topology.Mesh, src topology.NodeID, pat Pattern, proc Process, rng *sim.RNG, pktLen int, nextID func() noc.PacketID, from *packets) Generator {
	if pktLen < 1 || pktLen > noc.MaxLen {
		panic(fmt.Sprintf("traffic: packet length %d outside [1, %d] flits", pktLen, noc.MaxLen))
	}
	if nextID == nil {
		panic("traffic: nextID must not be nil")
	}
	return Generator{mesh: m, src: src, pattern: pat, process: proc, rng: rng, pktLen: pktLen, nextID: nextID, packets: from}
}

// Generate returns a new packet if the injection process fires at cycle now,
// or nil. The packet stays valid, and the caller's, for as long as anything
// refers to it: nothing the generator hands out is ever reused.
func (g *Generator) Generate(now sim.Cycle) *noc.Packet {
	if !g.process.Inject(g.rng, now) {
		return nil
	}
	p := g.packets.next()
	*p = noc.Packet{
		ID:        g.nextID(),
		Src:       int32(g.src),
		Dst:       int32(g.pattern.Dest(g.rng, g.mesh, g.src)),
		Len:       int32(g.pktLen),
		CreatedAt: now,
	}
	return p
}

// PacketRateFor converts an offered load expressed as a fraction of network
// capacity into a per-node packet injection rate (packets/cycle), given the
// mesh and packet length: load × capacity(flits/cycle) ÷ packet length.
func PacketRateFor(m topology.Mesh, load float64, pktLen int) float64 {
	return load * m.CapacityPerNode() / float64(pktLen)
}
