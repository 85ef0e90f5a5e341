// Package core implements flit-reservation flow control, the paper's primary
// contribution. Control flits traverse a separate control network in advance
// of the data flits and reserve data-network buffers and channel bandwidth
// cycle by cycle; data flits carry payload only and are steered purely by
// their pre-arranged schedule.
//
// A router (Figure 3 of the paper) consists of:
//
//   - a control network side: per-input control virtual channels with small
//     queues, credit-based wormhole allocation, and a routing table indexed
//     by control VCID;
//   - an output reservation table per output port recording, for every cycle
//     out to the scheduling horizon, whether the output channel is reserved
//     and how many buffers will be free at the downstream input pool;
//   - an input reservation table per input port directing, cycle by cycle,
//     which buffer each arriving data flit is written to and which buffer is
//     driven onto which output channel;
//   - a shared data-buffer pool per input port, with a specific buffer chosen
//     only when the flit arrives (deferred allocation, Section 5).
//
// Reservation signals update the input reservation table and return credits
// upstream announcing the future cycle a buffer frees, so buffers are
// accounted busy only for the flit's actual residency — zero turnaround.
package core

import (
	"fmt"

	"frfc/internal/noc"
	"frfc/internal/routing"
	"frfc/internal/sim"
)

// Config selects a flit-reservation network configuration. The paper's
// measured points are FR6 (6 data buffers, 2 control VCs) and FR13 (13 data
// buffers, 4 control VCs); see internal/experiment for the named presets.
type Config struct {
	// DataBuffers is b_d, the size of each input port's pooled data-flit
	// buffer, at most MaxDataBuffers.
	DataBuffers int
	// CtrlVCs is v_c, the number of virtual channels per control channel.
	CtrlVCs int
	// CtrlBufPerVC is the depth of each control VC queue (3 in the
	// paper's configurations).
	CtrlBufPerVC int
	// Horizon is s, the scheduling horizon: at cycle t the latest
	// reservable departure is t+Horizon (32 in the paper; swept 16–128
	// in Figure 7).
	Horizon sim.Cycle
	// LeadsPerCtrl is d, the maximum number of data flits led by one
	// control flit (1 in the paper's measured configurations; Section 5
	// discusses wider control flits).
	LeadsPerCtrl int
	// CtrlFlitsPerCycle is the control channel bandwidth in control
	// flits per cycle (2 in the paper: two narrow control flits are
	// injected and processed per cycle).
	CtrlFlitsPerCycle int

	// DataLinkLatency is the data-wire propagation delay between
	// adjacent routers (4 with fast control wires, 1 in the
	// leading-control configuration).
	DataLinkLatency sim.Cycle
	// CtrlLinkLatency is the control-wire propagation delay (1 cycle in
	// both configurations).
	CtrlLinkLatency sim.Cycle
	// CreditLatency is the credit-wire propagation delay (1 cycle).
	CreditLatency sim.Cycle
	// LocalLatency is the injection/ejection data link delay between a
	// network interface and its router.
	LocalLatency sim.Cycle
	// LeadCycles is N, the number of cycles data flits are deferred
	// behind their control flits at injection (0 under fast control;
	// 1, 2, 4 in Figure 8's leading-control experiments).
	LeadCycles sim.Cycle

	// AllOrNothing switches output scheduling from the default per-flit
	// mode to all-or-nothing: a control flit's reservations commit only
	// if every data flit it leads can be scheduled (Section 5 ablation;
	// it only differs from per-flit mode when LeadsPerCtrl > 1).
	AllOrNothing bool
	// TrackEagerTransfers, when set, runs a shadow ledger that assigns
	// specific buffers at reservation time — the alternative policy of
	// Figure 10 — and counts the buffer-to-buffer transfers that policy
	// would force. It does not change network behavior.
	TrackEagerTransfers bool
	// SourceInterleave lets a node's network interface work on several
	// packets' control flits concurrently, one per control VC. The
	// default (false) models the paper's constant-rate source: a FIFO
	// queue whose packets start injection strictly in order (data flits
	// of consecutive packets still overlap, since injection times are
	// scheduled).
	SourceInterleave bool

	// DataFaultRate injects faults: each data flit transmission on an
	// inter-router link is lost with this probability, exercising the
	// error story of Section 5 — the downstream router receives an idle
	// pattern where its input reservation table expected data, drops the
	// reservation, and the scheduling tables return to a consistent
	// state with no lost buffers or stalled links. The destination
	// detects the hole in its reassembly schedule and reports the packet
	// lost (and, with RetryLimit > 0, triggers an end-to-end retry).
	DataFaultRate float64
	// CtrlFaultRate corrupts each control flit transmission on an
	// inter-router control link with this probability. Corrupted control
	// flits are recovered by link-level detection-and-retransmission —
	// the receiver detects the corruption, NACKs, and the sender replays
	// from its per-VC retransmit buffer after one link round-trip — so
	// control information is delayed but never lost, completing the
	// Section 5 error story. Data flits led by a delayed control flit
	// simply park on the downstream schedule list until it catches up.
	CtrlFaultRate float64

	// BER is the per-link residual bit-error rate: each flit transmission
	// (data or control) on an inter-router link is delivered on time but
	// with its Corrupted flag set with this probability — corruption as
	// delivery, distinct from the loss of DataFaultRate and the delay of
	// CtrlFaultRate. Corrupted flits are hunted by the modeled hop-level CRC
	// (CrcBits) and, for payload, the end-to-end check (E2ECheck); whatever
	// escapes both is a silent-corruption delivery. Must be < 1.
	BER float64
	// CrcBits is c, the modeled strength of the hop-level CRC: a receiving
	// router catches a corrupted flit with probability 1 − 2^−c. A detected
	// corrupt data flit is discarded into the existing loss path (hole
	// detection, NACK, retry); a detected corrupt control flit is discarded
	// with its reservations released, exactly like the hard-fault discard
	// path. 0 takes the default of 16 bits; negative disables the hop CRC
	// entirely so every corruption escapes to the end-to-end layer.
	CrcBits int
	// E2ECheck verifies the reassembled packet's payload checksum at the
	// destination interface: a packet any of whose delivered flits were
	// corrupted is treated as lost (and retried under RetryLimit) instead
	// of delivered. With the check off such packets are delivered anyway
	// and counted as corrupt escapes, making the residual-error rate
	// measurable.
	E2ECheck bool
	// ReclaimCycles hardens the reservation tables against escaped control
	// corruption: a data flit parked on an input's schedule list longer
	// than this many cycles can no longer be claimed by any truthful
	// control flit (phantom reservation damage), so it is reclaimed — the
	// buffer freed and the flit dropped into the loss path. 0 takes the
	// default of 8×Horizon when BER > 0, otherwise reclamation is off.
	// Reclamation also bounds the checker's leak invariant: with it active
	// no parked flit may outlive the timeout.
	ReclaimCycles sim.Cycle

	// RetryLimit enables end-to-end packet retry when positive: the
	// destination's hole detection sends a loss notification (NACK) back
	// to the source, which re-offers the packet, up to RetryLimit times
	// before abandoning it. Zero keeps the detection-only behavior where
	// a loss resolves the packet's fate.
	RetryLimit int
	// RetryBackoffBase is the delay before the first retry injection;
	// each subsequent retry of the same packet doubles it (exponential
	// backoff). Defaults to 64 cycles when RetryLimit > 0.
	RetryBackoffBase sim.Cycle
	// RetryTimeout, when positive, is the source's per-packet timer: if
	// neither a delivery acknowledgment nor a loss notification arrives
	// within RetryTimeout cycles of the packet's (re-)injection, the
	// source retries as if a NACK had arrived. Zero relies on the
	// (in-model reliable) notification plane alone.
	RetryTimeout sim.Cycle
	// NackLatency is the modeled control-plane latency of end-to-end
	// delivery/loss notifications between a destination and a source
	// interface. Defaults to 16 cycles when RetryLimit > 0.
	NackLatency sim.Cycle

	// WatchdogCycles arms the no-progress watchdog when positive: if
	// packets are in flight, no recovery action (notification or retry
	// timer) is pending, and no flit has moved for WatchdogCycles cycles,
	// the network captures a diagnostic snapshot of every stalled
	// router's reservation tables, parked flits and control VC state and
	// surfaces it through the Wedged hook.
	WatchdogCycles sim.Cycle

	// Routing selects the routing algorithm; nil means dimension-ordered
	// XY routing, the paper's choice. Hard-fault scenarios (Faults) need
	// fault-aware routing and force a per-topology lookup table unless one
	// was supplied.
	Routing routing.Algorithm

	// Faults is the deterministic hard-fault scenario: scheduled link and
	// router outages applied between cycles, severing wires and destroying
	// whatever they carry. Events must be in non-decreasing cycle order and
	// are validated against the mesh by New. The scenario is part of the
	// configuration — and therefore of the harness job hash — so runs stay
	// bit-identical across worker counts.
	Faults []FaultEvent

	// Check enables the per-cycle runtime invariant checker: control-credit
	// conservation per link, reservation-table consistency, buffer-pool
	// consistency, and emptiness of severed pipes. A violation panics with
	// a diagnostic snapshot. Roughly doubles per-cycle cost; meant for CI
	// smoke runs and debugging, not sweeps.
	Check bool
}

// WithDefaults fills unset fields with the paper's FR6 values, as New does.
func (c Config) WithDefaults() Config {
	if c.DataBuffers == 0 {
		c.DataBuffers = 6
	}
	if c.CtrlVCs == 0 {
		c.CtrlVCs = 2
	}
	if c.CtrlBufPerVC == 0 {
		c.CtrlBufPerVC = 3
	}
	if c.Horizon == 0 {
		c.Horizon = 32
	}
	if c.LeadsPerCtrl == 0 {
		c.LeadsPerCtrl = 1
	}
	if c.CtrlFlitsPerCycle == 0 {
		c.CtrlFlitsPerCycle = 2
	}
	if c.DataLinkLatency == 0 {
		c.DataLinkLatency = 4
	}
	if c.CtrlLinkLatency == 0 {
		c.CtrlLinkLatency = 1
	}
	if c.CreditLatency == 0 {
		c.CreditLatency = 1
	}
	if c.LocalLatency == 0 {
		c.LocalLatency = 1
	}
	if c.Routing == nil {
		c.Routing = routing.XY
	}
	corrupt := c.BER > 0 || hasCorruptFaults(c.Faults)
	if corrupt {
		if c.CrcBits == 0 {
			c.CrcBits = 16
		}
		if c.ReclaimCycles == 0 {
			c.ReclaimCycles = 8 * c.Horizon
		}
	}
	if c.RetryLimit > 0 {
		if c.RetryBackoffBase == 0 {
			c.RetryBackoffBase = 64
		}
		if c.NackLatency == 0 {
			c.NackLatency = 16
		}
		if (len(c.Faults) > 0 || corrupt) && c.RetryTimeout == 0 {
			// A hard fault can destroy a packet so completely that no
			// destination ever learns it existed, and a CRC-discarded
			// control stream can die before the destination is told to
			// expect anything — in both cases NACK-based detection alone
			// never fires, so these runs need the source timer.
			c.RetryTimeout = 1024
		}
	}
	return c
}

// validate panics on structurally impossible configurations.
func (c Config) validate() {
	if c.DataBuffers < 1 {
		panic(fmt.Sprintf("core: DataBuffers must be >= 1, got %d", c.DataBuffers))
	}
	if c.DataBuffers > MaxDataBuffers {
		panic(fmt.Sprintf("core: DataBuffers must be <= %d (a reservation table counts free buffers in byte lanes), got %d", MaxDataBuffers, c.DataBuffers))
	}
	if c.CtrlVCs < 1 || c.CtrlBufPerVC < 1 {
		panic("core: control network needs at least one VC with one buffer")
	}
	if c.LeadsPerCtrl < 1 {
		panic("core: LeadsPerCtrl must be >= 1")
	}
	if c.CtrlFlitsPerCycle < 1 {
		panic("core: CtrlFlitsPerCycle must be >= 1")
	}
	if c.Horizon < 2 {
		panic("core: Horizon must be at least 2 cycles")
	}
	if c.DataLinkLatency < 1 || c.CtrlLinkLatency < 1 || c.CreditLatency < 1 || c.LocalLatency < 1 {
		panic("core: link latencies must be >= 1 cycle")
	}
	if c.Horizon <= c.DataLinkLatency {
		panic("core: Horizon must exceed DataLinkLatency or nothing can ever be reserved")
	}
	if c.DataBuffers < c.CtrlVCs {
		panic("core: DataBuffers must be at least CtrlVCs — each control VC needs one reservable buffer downstream for deadlock freedom")
	}
	if !c.AllOrNothing && c.DataBuffers < c.LeadsPerCtrl+c.CtrlVCs-1 {
		panic("core: per-flit scheduling needs DataBuffers >= LeadsPerCtrl + CtrlVCs - 1 so a wide control flit can always be admitted downstream")
	}
	if c.LeadCycles < 0 || c.LeadCycles > c.Horizon {
		// The interface reserves a data flit's injection cycle in a table
		// that reaches Horizon cycles ahead: a longer lead finds no cycle.
		panic(fmt.Sprintf("core: LeadCycles must be in [0, Horizon=%d], got %d", c.Horizon, c.LeadCycles))
	}
	validateRate("DataFaultRate", c.DataFaultRate)
	validateRate("CtrlFaultRate", c.CtrlFaultRate)
	validateRate("BER", c.BER)
	if c.CtrlFaultRate == 1 {
		panic("core: CtrlFaultRate must be < 1 — a link that corrupts every transmission can never deliver")
	}
	if c.BER == 1 {
		panic("core: BER must be < 1 — a link that corrupts every transmission carries no information")
	}
	if c.CrcBits > noc.MaxCrcBits {
		panic(fmt.Sprintf("core: CrcBits must be <= %d, got %d", noc.MaxCrcBits, c.CrcBits))
	}
	if c.ReclaimCycles < 0 {
		panic("core: ReclaimCycles must be >= 0")
	}
	if c.RetryLimit < 0 || c.RetryLimit > noc.MaxLen {
		panic(fmt.Sprintf("core: RetryLimit must be in [0, %d] (a packet counts its attempts in 32 bits), got %d", noc.MaxLen, c.RetryLimit))
	}
	if c.RetryLimit > 0 && (c.RetryBackoffBase < 1 || c.NackLatency < 1) {
		panic("core: retry needs RetryBackoffBase >= 1 and NackLatency >= 1")
	}
	if c.RetryBackoffBase < 0 || c.RetryTimeout < 0 || c.NackLatency < 0 || c.WatchdogCycles < 0 {
		panic("core: retry/watchdog cycle parameters must be >= 0")
	}
}

// validateRate rejects fault probabilities outside [0,1], including NaN
// (which compares false against everything and would otherwise slip through
// range checks silently).
func validateRate(name string, r float64) {
	if r != r || r < 0 || r > 1 {
		panic(fmt.Sprintf("core: %s must be a probability in [0,1], got %v", name, r))
	}
}
