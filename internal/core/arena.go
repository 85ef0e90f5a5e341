package core

import (
	"math/bits"

	"frfc/internal/noc"
	"frfc/internal/sim"
	"frfc/internal/topology"
)

// arena is the memory of one network: one backing array per element type,
// each made by newArena at the length the configuration and the mesh call
// for, before any component exists, and cut up by the components' init
// methods as New lays them out. So a network costs the same few dozen
// allocations at any radix, everything a fault-free run will touch is there
// from the first cycle, and Reset works on the memory New left. The zero
// arena backs a component built on its own (the unit tests'): see carve.
type arena struct {
	flags    []bool                  // control-VC ownership
	tables   []uint64                // reservation tables' free-count lanes and busy bits
	counts   []int                   // per-VC residencies, claims and control credits
	future   []futureDelta           // table at-infinity deltas
	pool     []poolSlot              // data buffers
	words    []uint64                // occupancy words of pools, routers' channel vectors
	expected []ringCell[reservation] // input reservation tables
	refs     []ringCell[flitRef]     // injection and reassembly schedules
	parked   []parkedFlit            // schedule lists
	vcs      []ctrlVC                // routers' control channels, every port's
	queued   []queuedCtrl            // control-VC queue cells
	leads    []leadState             // their lead-state lists
	entries  []noc.LeadEntry         // the lead arrays control flits carry, one a cell
	cands    []uint16                // routers' arbitration scratch
	undo     []tentative             // routers' all-or-nothing scratch
	active   []niPacket
	cycles   []sim.Cycle   // interfaces' scheduling scratch
	source   []*noc.Packet // source queues, sourceRoom packets each
	links    []linkPipes   // the link registry: empty, with room for every link
	cal      []uint32      // the nodes' due calendars

	data       sim.PipeSlab[noc.DataFlit]
	resvCredit sim.PipeSlab[noc.ReservationCredit]
	ctrl       sim.PipeSlab[noc.ControlFlit]
	ctrlCredit sim.PipeSlab[noc.VCCredit]
}

// sourceRoom is how many packets a source queue holds before it has to grow:
// below saturation a node is rarely more than a packet or two behind.
const sourceRoom = 8

// newArena sizes every array. The mesh contributes three counts — nodes,
// directed inter-router links, and router ports that exist (a link's far end
// or a Local port) — and the configuration the size of each table.
func newArena(mesh topology.Mesh, cfg *Config) *arena {
	nodes, links := mesh.N(), 0
	for id := 0; id < nodes; id++ {
		for p := topology.Port(0); p < topology.Local; p++ {
			if mesh.HasLink(topology.NodeID(id), p) {
				links++
			}
		}
	}
	ports := links + nodes
	tables := ports + nodes // an output table a port, an injection table a node
	window := int(cfg.Horizon) + 1
	laneWords, busyWords := tableWords(window)
	v, d, b := cfg.CtrlVCs, cfg.LeadsPerCtrl, cfg.DataBuffers
	chans := nodes * int(topology.NumPorts) * v // every router has a channel space of every port's VCs
	cells := ports * v * cfg.CtrlBufPerVC       // control-queue cells, as many as control credits
	dataCells := links*sim.RingCells(cfg.DataLinkLatency, 1) + 2*nodes*sim.RingCells(cfg.LocalLatency, 1)
	return &arena{
		flags:    make([]bool, ports*v),
		tables:   make([]uint64, tables*(laneWords+busyWords)),
		counts:   make([]int, tables*2*v+ports*v),
		future:   make([]futureDelta, links*int(cfg.DataLinkLatency)+nodes*int(cfg.LocalLatency)),
		pool:     make([]poolSlot, ports*b),
		words:    make([]uint64, ports*occupancyWords(b)+nodes*2*occupancyWords(int(topology.NumPorts)*v)),
		expected: make([]ringCell[reservation], ports*window),
		refs:     make([]ringCell[flitRef], nodes*(2*window+int(cfg.LocalLatency))),
		parked:   make([]parkedFlit, ports*b),
		vcs:      make([]ctrlVC, chans),
		queued:   make([]queuedCtrl, cells),
		leads:    make([]leadState, cells*d),
		entries:  make([]noc.LeadEntry, cells*d),
		cands:    make([]uint16, chans),
		undo:     make([]tentative, nodes*d),
		active:   make([]niPacket, nodes*v),
		cycles:   make([]sim.Cycle, nodes*d),
		source:   make([]*noc.Packet, nodes*sourceRoom),
		links:    make([]linkPipes, 0, links),
		cal:      make([]uint32, nodes*sim.CalendarCells(cfg.calendarReach())),

		data:       sim.NewPipeSlab[noc.DataFlit](links+2*nodes, dataCells),
		resvCredit: sim.NewPipeSlab[noc.ReservationCredit](ports, ports*sim.RingCells(cfg.CreditLatency, cfg.resvCreditWidth())),
		ctrl:       sim.NewPipeSlab[noc.ControlFlit](ports, ports*sim.RingCells(cfg.CtrlLinkLatency, cfg.CtrlFlitsPerCycle)),
		ctrlCredit: sim.NewPipeSlab[noc.VCCredit](ports, ports*sim.RingCells(cfg.CreditLatency, v)),
	}
}

// left counts what construction has not cut yet; New wants none, which says
// that what newArena counted is what the components took.
func (a *arena) left() int {
	return len(a.flags) + len(a.tables) + len(a.counts) + len(a.future) + len(a.pool) + len(a.words) +
		len(a.expected) + len(a.refs) + len(a.parked) + len(a.vcs) + len(a.queued) + len(a.leads) +
		len(a.entries) + len(a.cands) + len(a.undo) + len(a.active) + len(a.cycles) + len(a.source) + len(a.cal) +
		a.data.Left() + a.resvCredit.Left() + a.ctrl.Left() + a.ctrlCredit.Left()
}

// carve cuts the next n elements off a backing array, capped so that an
// append past them cannot reach its neighbour's. A nil array stands for a
// component built outside a network, which gets an array of exactly n; one
// with fewer than n left was miscounted, and panics.
func carve[T any](from *[]T, n int) []T {
	if *from == nil {
		return make([]T, n)
	}
	s := (*from)[:n:n]
	*from = (*from)[n:]
	return s
}

// occupancy is one bit per slot of a small fixed table — a pool's buffers, a
// router's control channels — in as many words as the table needs, so
// that finding the occupied slots, or the first free one, reads a word and
// not the table. Slots come out in ascending order, the order the scans over
// the tables ran in, so every random draw and hook call that follows one
// lands where it did.
type occupancy []uint64

func occupancyWords(slots int) int { return (slots + 63) / 64 }

func (o occupancy) set(i int)   { o[i>>6] |= 1 << (i & 63) }
func (o occupancy) clear(i int) { o[i>>6] &^= 1 << (i & 63) }

// next returns the lowest occupied slot at or above from, or -1.
func (o occupancy) next(from int) int {
	for w := from >> 6; w < len(o); w++ {
		m := o[w]
		if w == from>>6 {
			m &= ^uint64(0) << (from & 63)
		}
		if m != 0 {
			return w<<6 + bits.TrailingZeros64(m)
		}
	}
	return -1
}

// firstFree returns the lowest free slot of a table of n, or -1 when all are
// occupied.
func (o occupancy) firstFree(n int) int {
	for w, m := range o {
		if i := w<<6 + bits.TrailingZeros64(^m); m != ^uint64(0) && i < n {
			return i
		}
	}
	return -1
}
