// Package profile is the simulator's self-profiling registry: where
// internal/metrics counts what the simulated fabric did, this package counts
// what the simulator itself did to compute it. Per node and per component it
// separates ticks that performed work (moved a flit, absorbed a credit,
// arbitrated a candidate) from ticks that woke for nothing, attributes the FR
// router's activity to its pipeline phases (reservation scheduling,
// arbitration, switch traversal, credit handling), and samples allocation and
// GC deltas on the metrics epoch. The resulting idle fractions are the
// measured case for the event-driven kernel refactor.
//
// The contract matches internal/metrics: every method is safe — and free of
// allocation — on a nil *Registry, so a disabled profiler costs the hot path
// one pointer test per tick. Profiling is observation-only; nothing here may
// feed back into simulation behaviour.
package profile

import (
	"fmt"
	"io"
	"runtime"
	"sort"

	"frfc/internal/sim"
	"frfc/internal/topology"
)

// Component identifies which simulator object a tick belongs to.
type Component int

const (
	// CompRouter is a router tick (FR or VC-family).
	CompRouter Component = iota
	// CompNI is a network-interface (injection-side) tick.
	CompNI
	// CompSink is an ejection-side tick.
	CompSink
	// NumComponents sizes per-component arrays.
	NumComponents
)

var componentNames = [NumComponents]string{"router", "ni", "sink"}

// String names the component for exports.
func (c Component) String() string {
	if c < 0 || c >= NumComponents {
		return fmt.Sprintf("component(%d)", int(c))
	}
	return componentNames[c]
}

// Phase identifies one of the FR router's pipeline phases for cycle
// attribution. A phase "cycle" is one unit of work inside that phase, not a
// wall-clock measure: credit messages absorbed, control candidates
// arbitrated, output-scheduler invocations, and data flits through the
// crossbar respectively.
type Phase int

const (
	// PhaseSched is reservation scheduling: output-table scheduling work
	// triggered by arbitration winners (lead admission, departure search).
	PhaseSched Phase = iota
	// PhaseArb is control-flit arbitration: candidates considered in the
	// arbitration walk plus control receptions queued for it.
	PhaseArb
	// PhaseSwitch is switch traversal: data flits leaving through the
	// crossbar or arriving at an input.
	PhaseSwitch
	// PhaseCredit is credit handling: credit messages absorbed from data
	// and control planes.
	PhaseCredit
	// NumPhases sizes per-phase arrays.
	NumPhases
)

var phaseNames = [NumPhases]string{"sched", "arb", "switch", "credit"}

// String names the phase for exports.
func (p Phase) String() string {
	if p < 0 || p >= NumPhases {
		return fmt.Sprintf("phase(%d)", int(p))
	}
	return phaseNames[p]
}

// NodeProfile accounts one node's simulator activity, indexed by NodeID in
// the registry.
type NodeProfile struct {
	// Ticks counts how many times each component at this node was ticked;
	// Active counts the subset of those ticks that performed any work. The
	// gap is the wake-for-nothing overhead an event-driven kernel would
	// skip.
	Ticks  [NumComponents]int64 `json:"ticks"`
	Active [NumComponents]int64 `json:"active"`
	// Phases attributes the FR router's work units to pipeline phases
	// (see Phase). Zero for non-FR substrates.
	Phases [NumPhases]int64 `json:"phases"`
}

// idleFraction is the fraction of the node's router ticks that performed no
// work, 0 for a router that never ticked.
func (n *NodeProfile) idleFraction() float64 {
	if n.Ticks[CompRouter] == 0 {
		return 0
	}
	return 1 - float64(n.Active[CompRouter])/float64(n.Ticks[CompRouter])
}

// MemStats aggregates per-epoch allocation and GC deltas sampled with
// runtime.ReadMemStats. These numbers describe the host process, not the
// simulated machine, and are inherently nondeterministic — they live only in
// the profile registry and never enter experiment results.
type MemStats struct {
	// Epochs is how many samples were folded in.
	Epochs int64 `json:"epochs"`
	// AllocBytes, Mallocs and Frees are cumulative heap deltas over the
	// sampled window; NumGC counts completed collections and PauseNs their
	// total stop-the-world time.
	AllocBytes int64 `json:"allocBytes"`
	Mallocs    int64 `json:"mallocs"`
	Frees      int64 `json:"frees"`
	NumGC      int64 `json:"numGC"`
	PauseNs    int64 `json:"pauseNs"`
	// MaxEpochAllocBytes is the largest single-epoch allocation delta —
	// the spike the steady-state average hides.
	MaxEpochAllocBytes int64 `json:"maxEpochAllocBytes"`
}

// Registry holds every node's self-profiling counters for one simulated
// network, laid out as a topology.Grid: Epoch is the memory-sampling period.
type Registry struct {
	topology.Grid[NodeProfile]
	// Mem is the aggregated allocation/GC sample set.
	Mem MemStats `json:"mem"`

	// lastMem is the previous runtime snapshot; primed once the first
	// sample has been taken so the initial absolute values don't count as
	// a delta.
	lastMem runtime.MemStats
	primed  bool
}

// NewRegistry returns an empty registry sampling memory every epoch cycles
// (non-positive = topology.DefaultEpoch, the tick the metrics registry
// samples on too). Node storage is sized on Init.
func NewRegistry(epoch sim.Cycle) *Registry {
	return &Registry{Grid: topology.NewGrid[NodeProfile](epoch)}
}

// RouterTick records one router tick at node with its per-phase work counts:
// sched output-scheduler invocations, arb arbitration candidates, sw data
// flits through the crossbar, cred credit messages absorbed. The tick is
// active when any phase did work. It is the nil test alone, so that the
// compiler inlines it and a router ticking with profiling off makes no call.
func (r *Registry) RouterTick(node, sched, arb, sw, cred int) {
	if r != nil {
		r.routerTick(node, sched, arb, sw, cred)
	}
}

func (r *Registry) routerTick(node, sched, arb, sw, cred int) {
	n := r.At(node)
	n.Ticks[CompRouter]++
	if sched|arb|sw|cred != 0 {
		n.Active[CompRouter]++
	}
	n.Phases[PhaseSched] += int64(sched)
	n.Phases[PhaseArb] += int64(arb)
	n.Phases[PhaseSwitch] += int64(sw)
	n.Phases[PhaseCredit] += int64(cred)
}

// ComponentTick records one tick of component c at node, active when the
// component performed any work this cycle. Used for NIs, sinks, and the
// VC-family routers, which account activity without phase attribution.
func (r *Registry) ComponentTick(c Component, node int, active bool) {
	if r == nil {
		return
	}
	n := r.At(node)
	n.Ticks[c]++
	if active {
		n.Active[c]++
	}
}

// Due reports whether now falls on the memory-sampling epoch.
func (r *Registry) Due(now sim.Cycle) bool {
	return r != nil && r.Epoch > 0 && now%r.Epoch == 0
}

// SampleMem folds one runtime.ReadMemStats delta into the registry. The
// first call primes the baseline and records nothing. ReadMemStats stops the
// world briefly; call it on the sampling epoch, not every cycle.
func (r *Registry) SampleMem() {
	if r == nil {
		return
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	if r.primed {
		alloc := int64(m.TotalAlloc - r.lastMem.TotalAlloc)
		r.Mem.Epochs++
		r.Mem.AllocBytes += alloc
		r.Mem.Mallocs += int64(m.Mallocs - r.lastMem.Mallocs)
		r.Mem.Frees += int64(m.Frees - r.lastMem.Frees)
		r.Mem.NumGC += int64(m.NumGC - r.lastMem.NumGC)
		r.Mem.PauseNs += int64(m.PauseTotalNs - r.lastMem.PauseTotalNs)
		if alloc > r.Mem.MaxEpochAllocBytes {
			r.Mem.MaxEpochAllocBytes = alloc
		}
	}
	r.lastMem = m
	r.primed = true
}

// Merge folds another registry's counts into this one: tick and phase
// counters add node for node under the grid's layout merge, and memory deltas
// add (epoch maxima take the larger). Merging nil is a no-op.
func (r *Registry) Merge(o *Registry) {
	if r == nil || o == nil {
		return
	}
	r.Grid.Merge(&o.Grid, func(dst, src *NodeProfile) {
		for c := range dst.Ticks {
			dst.Ticks[c] += src.Ticks[c]
			dst.Active[c] += src.Active[c]
		}
		for p := range dst.Phases {
			dst.Phases[p] += src.Phases[p]
		}
	})
	r.Mem.Epochs += o.Mem.Epochs
	r.Mem.AllocBytes += o.Mem.AllocBytes
	r.Mem.Mallocs += o.Mem.Mallocs
	r.Mem.Frees += o.Mem.Frees
	r.Mem.NumGC += o.Mem.NumGC
	r.Mem.PauseNs += o.Mem.PauseNs
	r.Mem.MaxEpochAllocBytes = max(r.Mem.MaxEpochAllocBytes, o.Mem.MaxEpochAllocBytes)
}

// ComponentTotals sums ticks and active ticks per component class across
// every node.
func (r *Registry) ComponentTotals() (ticks, active [NumComponents]int64) {
	if r == nil {
		return ticks, active
	}
	for i := range r.Nodes {
		for c := range ticks {
			ticks[c] += r.Nodes[i].Ticks[c]
			active[c] += r.Nodes[i].Active[c]
		}
	}
	return ticks, active
}

// Totals sums ticks and active ticks across every node and component.
func (r *Registry) Totals() (ticks, active int64) {
	t, a := r.ComponentTotals()
	for c := range t {
		ticks += t[c]
		active += a[c]
	}
	return ticks, active
}

// IdleFraction is the fraction of all component ticks that performed no
// work, in [0,1]; 0 when nothing was recorded.
func (r *Registry) IdleFraction() float64 { return r.Activity().IdleFraction }

// PhaseTotals sums the FR router's per-phase work units across all nodes.
func (r *Registry) PhaseTotals() [NumPhases]int64 {
	var t [NumPhases]int64
	if r == nil {
		return t
	}
	for i := range r.Nodes {
		for p := 0; p < int(NumPhases); p++ {
			t[p] += r.Nodes[i].Phases[p]
		}
	}
	return t
}

// Activity is a registry's deterministic summary, the part of a profile that
// may enter an experiment result: component ticks executed against ticks that
// did work, their gap as a fraction, and the FR router's work units per phase
// (zero on the other fabrics). Every value is a function of the simulation
// alone — host memory samples stay in the registry — so it is identical for
// any worker count.
type Activity struct {
	Ticks        int64   `json:"ticks"`
	ActiveTicks  int64   `json:"activeTicks"`
	IdleFraction float64 `json:"idleFraction"`
	SchedWork    int64   `json:"schedWork"`
	ArbWork      int64   `json:"arbWork"`
	SwitchWork   int64   `json:"switchWork"`
	CreditWork   int64   `json:"creditWork"`
}

// Activity summarizes the registry; the zero Activity on a nil one.
func (r *Registry) Activity() Activity {
	ticks, active := r.Totals()
	ph := r.PhaseTotals()
	var a Activity
	a.Add(Activity{
		Ticks: ticks, ActiveTicks: active,
		SchedWork: ph[PhaseSched], ArbWork: ph[PhaseArb], SwitchWork: ph[PhaseSwitch], CreditWork: ph[PhaseCredit],
	})
	return a
}

// Add folds another summary into this one — the counts sum and the idle
// fraction is taken again over the sums — which is how a campaign aggregates
// its points.
func (a *Activity) Add(o Activity) {
	a.Ticks += o.Ticks
	a.ActiveTicks += o.ActiveTicks
	a.SchedWork += o.SchedWork
	a.ArbWork += o.ArbWork
	a.SwitchWork += o.SwitchWork
	a.CreditWork += o.CreditWork
	if a.Ticks > 0 {
		a.IdleFraction = 1 - float64(a.ActiveTicks)/float64(a.Ticks)
	}
}

// View is a registry rendered for display, what /status serves: the
// deterministic Activity, and beside it the host's allocation total over the
// sampled epochs and the one-line Summary. Activity is the form that is stored
// and merged.
type View struct {
	Activity
	MemAllocBytes int64  `json:"memAllocBytes"`
	MemEpochs     int64  `json:"memEpochs"`
	Summary       string `json:"summary"`
}

// View renders the registry — one run's, or the merge over the jobs of a
// campaign.
func (r *Registry) View() View {
	return View{Activity: r.Activity(), MemAllocBytes: r.Mem.AllocBytes, MemEpochs: r.Mem.Epochs, Summary: r.Summary()}
}

// HotNode describes one router's activity for Hottest.
type HotNode struct {
	// Node is the node id; X and Y its mesh coordinates.
	Node int `json:"node"`
	X    int `json:"x"`
	Y    int `json:"y"`
	// ActiveFraction is active router ticks over total router ticks.
	ActiveFraction float64 `json:"activeFraction"`
}

// Hottest returns the n routers with the highest active-tick fraction,
// busiest first, ties broken by node id for determinism. Nodes that never
// ticked are skipped.
func (r *Registry) Hottest(n int) []HotNode {
	if r == nil || n <= 0 {
		return nil
	}
	var hot []HotNode
	for id := range r.Nodes {
		ticks := r.Nodes[id].Ticks[CompRouter]
		if ticks == 0 {
			continue
		}
		c := r.Coord(id)
		hot = append(hot, HotNode{Node: id, X: c.X, Y: c.Y,
			ActiveFraction: float64(r.Nodes[id].Active[CompRouter]) / float64(ticks)})
	}
	sort.Slice(hot, func(i, j int) bool {
		if hot[i].ActiveFraction != hot[j].ActiveFraction {
			return hot[i].ActiveFraction > hot[j].ActiveFraction
		}
		return hot[i].Node < hot[j].Node
	})
	if len(hot) > n {
		hot = hot[:n]
	}
	return hot
}

// WriteIdleCSV writes a k×k grid of per-router idle-tick fractions (0..1),
// one row per mesh row, matching the physical layout so the file reads as a
// heatmap of where the cycle-stepped kernel wastes its wakeups.
func (r *Registry) WriteIdleCSV(w io.Writer) error {
	return r.WriteCSV(w, "# idle router-tick fraction per node (rows = mesh rows, y increasing downward)",
		(*NodeProfile).idleFraction)
}

// Summary renders a short human-readable digest: overall idle fraction,
// per-component idle fractions, the FR phase split, and the allocation rate.
func (r *Registry) Summary() string {
	if r == nil {
		return ""
	}
	a := r.Activity()
	if a.Ticks == 0 {
		return "profile: no ticks recorded"
	}
	ticks, active := r.ComponentTotals()
	s := fmt.Sprintf("profile: %.1f%% of %d component ticks idle", 100*a.IdleFraction, a.Ticks)
	for c := Component(0); c < NumComponents; c++ {
		if ticks[c] == 0 {
			continue
		}
		s += fmt.Sprintf("; %s %.1f%%", c, 100*(1-float64(active[c])/float64(ticks[c])))
	}
	if a.SchedWork+a.ArbWork+a.SwitchWork+a.CreditWork > 0 {
		s += fmt.Sprintf("; phases sched %d / arb %d / switch %d / credit %d",
			a.SchedWork, a.ArbWork, a.SwitchWork, a.CreditWork)
	}
	if r.Mem.Epochs > 0 {
		s += fmt.Sprintf("; mem %d B/epoch over %d epochs (%d GCs)",
			r.Mem.AllocBytes/r.Mem.Epochs, r.Mem.Epochs, r.Mem.NumGC)
	}
	return s
}
