package routing

import "frfc/internal/topology"

// Table is a per-node next-hop lookup table computed over the surviving
// topology. Routes follow up*/down* turn restrictions on a deterministic
// BFS spanning structure, so they stay deadlock-free on an arbitrarily
// damaged mesh; pairs left in different connected components are reported
// unreachable instead of routed.
//
// A Table is shared by pointer between every router and NI of a network and
// mutated in place by Rebuild, which the network calls between cycles when a
// fault event changes the topology. Lookups between rebuilds are read-only.
type Table struct {
	n    int
	next []topology.Port // indexed cur*n + dst
	ok   []bool          // indexed cur*n + dst; false = unreachable
	// version counts rebuilds; NIs compare it to detect topology epochs.
	version uint64
}

const unreachableDist = int(^uint(0) >> 1) // max int

// NewTable builds a table over the healthy mesh: every link and node alive.
func NewTable(m topology.Mesh) *Table {
	t := &Table{
		n:    m.N(),
		next: make([]topology.Port, m.N()*m.N()),
		ok:   make([]bool, m.N()*m.N()),
	}
	t.Reset(m)
	return t
}

// Reset returns the table to the one NewTable builds: routes over the healthy
// mesh, at topology epoch zero.
func (t *Table) Reset(m topology.Mesh) {
	all := func(topology.NodeID, topology.NodeID) bool { return true }
	up := func(topology.NodeID) bool { return true }
	t.rebuild(m, all, up)
	t.version = 0
}

// Rebuild recomputes every route over the surviving topology described by the
// two predicates: linkAlive reports whether the undirected link a—b is
// usable, nodeAlive whether a router still forwards traffic. It bumps the
// table version so NIs can notice the topology epoch changed. Rebuild is
// deterministic: node and port iteration order is fixed, so identical fault
// histories yield identical tables.
func (t *Table) Rebuild(m topology.Mesh, linkAlive func(a, b topology.NodeID) bool, nodeAlive func(topology.NodeID) bool) {
	t.rebuild(m, linkAlive, nodeAlive)
	t.version++
}

// Version identifies the topology epoch; it changes on every Rebuild.
func (t *Table) Version() uint64 { return t.version }

// NextPort implements Algorithm by table lookup. The boolean is false when
// dst is unreachable from cur over the surviving topology.
func (t *Table) NextPort(m topology.Mesh, cur, dst topology.NodeID) (topology.Port, bool) {
	i := int(cur)*t.n + int(dst)
	return t.next[i], t.ok[i]
}

// Reachable reports whether the table holds a route from src to dst.
func (t *Table) Reachable(src, dst topology.NodeID) bool {
	return t.ok[int(src)*t.n+int(dst)]
}

func (t *Table) rebuild(m topology.Mesh, linkAlive func(a, b topology.NodeID) bool, nodeAlive func(topology.NodeID) bool) {
	n := m.N()
	if t.n != n {
		panic("routing: table rebuilt over a different mesh size")
	}

	// usable(u, p) = the directed hop u→neighbor(u,p) survives.
	usable := func(u topology.NodeID, p topology.Port) (topology.NodeID, bool) {
		v, ok := m.Neighbor(u, p)
		if !ok || !nodeAlive(v) || !linkAlive(u, v) {
			return 0, false
		}
		return v, true
	}

	// Pass 1: connected components and BFS levels. Iterating roots in id
	// order makes each component's root its lowest live id; neighbor
	// iteration in port order fixes the level assignment.
	comp := make([]int, n)
	level := make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	queue := make([]topology.NodeID, 0, n)
	for root := 0; root < n; root++ {
		r := topology.NodeID(root)
		if comp[root] != -1 || !nodeAlive(r) {
			continue
		}
		comp[root] = root
		level[root] = 0
		queue = append(queue[:0], r)
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for p := topology.Port(0); p < topology.Port(topology.DirectionPorts); p++ {
				v, ok := usable(u, p)
				if !ok || comp[v] != -1 {
					continue
				}
				comp[v] = root
				level[v] = level[u] + 1
				queue = append(queue, v)
			}
		}
	}

	// above(v, u) = the edge u→v is an "up" move: toward the root in BFS
	// level, ties broken by id. The up-subgraph and down-subgraph are both
	// acyclic, which is what makes up*/down* trajectories deadlock-free.
	above := func(v, u topology.NodeID) bool {
		return level[v] < level[u] || (level[v] == level[u] && v < u)
	}

	// Node processing order for the up-phase relaxation: every up-neighbor
	// of u precedes u when nodes are sorted by (level, id) ascending.
	order := make([]topology.NodeID, 0, n)
	maxLevel := 0
	for i := 0; i < n; i++ {
		if comp[i] != -1 && level[i] > maxLevel {
			maxLevel = level[i]
		}
	}
	for l := 0; l <= maxLevel; l++ {
		for i := 0; i < n; i++ {
			if comp[i] != -1 && level[i] == l {
				order = append(order, topology.NodeID(i))
			}
		}
	}

	dist1 := make([]int, n) // shortest down-only distance to dst
	g := make([]int, n)     // greedy up*-then-down* distance to dst

	for d := 0; d < n; d++ {
		dst := topology.NodeID(d)
		base := 0 // recomputed per cur below
		if comp[d] == -1 {
			// Dead or nonexistent destination: nothing reaches it.
			for cur := 0; cur < n; cur++ {
				t.ok[cur*n+d] = false
			}
			continue
		}

		// Backward BFS from dst over the reversed down-graph: dist1[u] is
		// the length of the shortest all-down path u→dst, or unreachable.
		for i := range dist1 {
			dist1[i] = unreachableDist
		}
		dist1[d] = 0
		queue = append(queue[:0], dst)
		for len(queue) > 0 {
			w := queue[0]
			queue = queue[1:]
			for p := topology.Port(0); p < topology.Port(topology.DirectionPorts); p++ {
				u, ok := usable(w, p)
				if !ok || !above(u, w) || dist1[u] != unreachableDist {
					continue
				}
				dist1[u] = dist1[w] + 1
				queue = append(queue, u)
			}
		}

		// Greedy distance: commit to the down-only path as soon as one
		// exists; otherwise climb. Forcing g = dist1 whenever dist1 is
		// finite is what keeps per-node lookups trajectory-consistent —
		// once a packet takes a down hop, every subsequent node also has a
		// finite dist1 and keeps descending, so no route ever turns up
		// after going down.
		for _, u := range order {
			if dist1[u] != unreachableDist {
				g[u] = dist1[u]
				continue
			}
			best := unreachableDist
			for p := topology.Port(0); p < topology.Port(topology.DirectionPorts); p++ {
				v, ok := usable(u, p)
				if !ok || !above(v, u) || comp[v] != comp[d] {
					continue
				}
				if g[v] != unreachableDist && g[v]+1 < best {
					best = g[v] + 1
				}
			}
			g[u] = best
		}

		// Emit next hops.
		for cur := 0; cur < n; cur++ {
			base = cur*n + d
			u := topology.NodeID(cur)
			switch {
			case comp[cur] == -1 || comp[cur] != comp[d]:
				t.ok[base] = false
				continue
			case cur == d:
				t.next[base] = topology.Local
				t.ok[base] = true
				continue
			case g[u] == unreachableDist:
				t.ok[base] = false
				continue
			}
			found := false
			if dist1[u] != unreachableDist {
				for p := topology.Port(0); p < topology.Port(topology.DirectionPorts); p++ {
					w, ok := usable(u, p)
					if ok && !above(w, u) && dist1[w] == dist1[u]-1 {
						t.next[base] = p
						found = true
						break
					}
				}
			} else {
				for p := topology.Port(0); p < topology.Port(topology.DirectionPorts); p++ {
					v, ok := usable(u, p)
					if ok && above(v, u) && g[v] == g[u]-1 {
						t.next[base] = p
						found = true
						break
					}
				}
			}
			if !found {
				panic("routing: finite distance with no matching next hop")
			}
			t.ok[base] = true
		}
	}
}
