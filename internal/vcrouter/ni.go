package vcrouter

import (
	"fmt"

	"frfc/internal/metrics"
	"frfc/internal/noc"
	"frfc/internal/profile"
	"frfc/internal/sim"
	"frfc/internal/topology"
	"frfc/internal/waterfall"
)

// ni is a node's network interface on the injection side. It keeps the
// source queue of whole packets, decomposes the packet at the head of the
// queue into flits, and injects them into the router's Local input port over
// a one-flit-per-cycle injection channel, obeying the same credit protocol an
// upstream router would. Packets are assigned to free local-input virtual
// channels so that, as in a real terminal, several packets can be in flight
// when channels allow.
type ni struct {
	node  topology.NodeID
	cfg   *Config // the Network's one copy
	rng   *sim.RNG
	probe *metrics.Probe
	prof  *profile.Registry
	wf    *waterfall.Ledger

	queue  noc.SourceQueue
	slots  []niSlot
	active int // slots mid-injection

	credits []int // per local-input VC
	pool    int   // pooled credits (SharedPool mode)
	occ     []int // pooled buffers held per VC (SharedPool mode)
	owned   []bool

	data     *sim.Pipe[noc.DataFlit] // to the router's Local input
	creditIn *sim.Pipe[noc.VCCredit] // credits back from the router
	// cal is the node's due calendar, shared with its router: the interface
	// reads creditIn on the cycles niBit is set.
	cal sim.Calendar

	ready []int // scratch
}

// niSlot is one packet mid-injection on one local-input VC. flits is the
// slot's own scratch, cut afresh for each packet it carries: flits go on the
// wire by value.
type niSlot struct {
	active bool
	vc     int
	flits  []noc.DataFlit
	next   int
}

func newNI(node topology.NodeID, cfg *Config, rng *sim.RNG) *ni {
	n := &ni{node: node, cfg: cfg, rng: rng,
		slots:   make([]niSlot, cfg.NumVCs),
		credits: make([]int, cfg.NumVCs),
		occ:     make([]int, cfg.NumVCs),
		owned:   make([]bool, cfg.NumVCs),
	}
	n.reset()
	return n
}

// reset returns the interface to its just-built state: nothing
// mid-injection, every buffer of the router's Local input credited and
// unowned. The slots' scratch keeps its room; the random stream, the source
// queue, the wires, the calendar and the probe are the network's.
func (n *ni) reset() {
	for s := range n.slots {
		scratch := n.slots[s].flits
		clear(scratch[:cap(scratch)])
		n.slots[s] = niSlot{flits: scratch[:0]}
		n.credits[s], n.occ[s], n.owned[s] = n.cfg.BufPerVC, 0, false
	}
	n.active = 0
	n.pool = n.cfg.BuffersPerInput()
}

func (n *ni) hasCredit(vc int) bool {
	if n.cfg.SharedPool {
		// Same DAMQ reservation as the routers: never take the buffer
		// another empty VC needs to make progress.
		reserve := 0
		for w, c := range n.occ {
			if w != vc && c == 0 {
				reserve++
			}
		}
		return n.pool > reserve
	}
	return n.credits[vc] > 0
}

// Tick absorbs returned credits, starts queued packets on free virtual
// channels, and injects at most one flit (the injection channel's bandwidth).
func (n *ni) Tick(now sim.Cycle) {
	cell := n.cal.Cell(now)
	due := *cell & niBit
	if due == 0 && n.active == 0 && n.queue.Len() == 0 {
		// No credit to absorb, no packet to start, no flit to inject.
		n.prof.ComponentTick(profile.CompNI, int(n.node), false)
		return
	}
	// Self-profiling work counter: credits absorbed, packets started,
	// flits injected.
	work := 0
	if due != 0 {
		*cell &^= niBit
		credits := n.creditIn.Take(now)
		work += len(credits)
		for i := range credits {
			c := &credits[i].Item
			// The same checks a router makes on its outputs: a credit the
			// interface never spent is a leak in the model.
			if n.cfg.SharedPool {
				n.pool++
				n.occ[c.VC]--
				if n.pool > n.cfg.BuffersPerInput() || n.occ[c.VC] < 0 {
					panic(fmt.Sprintf("vcrouter: node %d ni pooled credit overflow", n.node))
				}
				continue
			}
			n.credits[c.VC]++
			if n.credits[c.VC] > n.cfg.BufPerVC {
				panic(fmt.Sprintf("vcrouter: node %d ni vc %d credit overflow", n.node, c.VC))
			}
		}
	}

	// Assign queued packets to free VC slots. By default the source is a
	// FIFO injecting one packet at a time; SourceInterleave lifts that to
	// one packet per local virtual channel.
	for s := range n.slots {
		if n.queue.Len() == 0 {
			break
		}
		if n.slots[s].active {
			continue
		}
		if !n.cfg.SourceInterleave && n.active > 0 {
			break
		}
		// Slot index doubles as VC index: each slot drives one VC.
		if n.owned[s] {
			continue
		}
		p := n.queue.Pop()
		n.owned[s] = true
		p.InjectedAt = now
		if n.wf != nil && p.Sampled {
			n.wf.InjectStart(uint64(p.ID), 0, p.CreatedAt, now)
		}
		n.slots[s] = niSlot{active: true, vc: s, flits: noc.AppendDataFlits(n.slots[s].flits[:0], p)}
		n.active++
		work++
	}

	// Inject one flit among ready slots, chosen at random.
	n.ready = n.ready[:0]
	if n.active > 0 {
		for s := range n.slots {
			sl := &n.slots[s]
			if sl.active && sl.next < len(sl.flits) && n.hasCredit(sl.vc) {
				n.ready = append(n.ready, s)
			}
		}
	}
	if len(n.ready) > 0 {
		s := n.ready[n.rng.Intn(len(n.ready))]
		sl := &n.slots[s]
		f := sl.flits[sl.next]
		f.VC = int32(sl.vc)
		sl.next++
		if n.cfg.SharedPool {
			n.pool--
			n.occ[sl.vc]++
		} else {
			n.credits[sl.vc]--
		}
		n.probe.Inject(now, int(n.node), uint64(f.Packet.ID), int(f.Seq))
		if n.wf != nil && f.Seq == 0 && f.Packet.Sampled {
			n.wf.HeadWire(uint64(f.Packet.ID), 0, now)
		}
		n.data.Send(now, f)
		if sl.next == len(sl.flits) {
			n.owned[sl.vc] = false
			sl.active = false
			n.active--
		}
		work++
	}
	n.prof.ComponentTick(profile.CompNI, int(n.node), work > 0)
}
