// Package vcrouter implements credit-based virtual-channel flow control
// [Dally92], the baseline the paper measures flit-reservation flow control
// against. Each physical channel multiplexes NumVCs virtual channels, each
// with its own flit queue; virtual channels arbitrate for physical channel
// bandwidth flit by flit, with random arbitration and single-cycle
// routing-plus-scheduling as specified in Section 4 of the paper.
//
// The package also implements the shared-buffer-pool variant of [TamFra92]
// (buffers of one input shared across its virtual channels), which Section 5
// reports gives no throughput improvement — an ablation reproduced by
// `paperfigs -extra ablations`.
package vcrouter

import (
	"fmt"

	"frfc/internal/noc"
	"frfc/internal/routing"
	"frfc/internal/sim"
)

// Config selects a virtual-channel network configuration. The paper's
// experimental points are VC8 (2 VCs × 4 flits), VC16 (4 × 4) and VC32
// (8 × 4); see Configuration helpers in internal/experiment.
type Config struct {
	// NumVCs is v_d, the number of virtual channels per physical channel.
	NumVCs int
	// BufPerVC is the depth of each virtual channel's flit queue.
	// NumVCs × BufPerVC is the per-input buffer count the paper quotes
	// (8, 16, 32).
	BufPerVC int
	// SharedPool, when true, pools an input's buffers across its virtual
	// channels ([TamFra92]); the per-VC queues become logical and only
	// the aggregate capacity is enforced.
	SharedPool bool
	// SourceInterleave lets a node's network interface inject several
	// packets concurrently, one per local virtual channel. The default
	// (false) models the paper's constant-rate source: a FIFO queue that
	// injects one packet at a time, so a blocked head packet stalls the
	// source.
	SourceInterleave bool

	// LinkLatency is the data-wire propagation delay between adjacent
	// routers in cycles: 4 in the paper's fast-control comparison, 1 in
	// the leading-control comparison.
	LinkLatency sim.Cycle
	// CreditLatency is the propagation delay of the credit wires
	// (1 cycle in both of the paper's configurations).
	CreditLatency sim.Cycle
	// LocalLatency is the injection/ejection link delay between a
	// network interface and its router (1 cycle).
	LocalLatency sim.Cycle

	// Routing selects the route function; nil means dimension-ordered
	// XY routing, the paper's choice.
	Routing routing.Algorithm

	// BER is the per-flit bit-error probability on inter-router data
	// links: each flit is delivered on time but corrupted with this
	// probability. The baseline has no loss machinery, so a hop CRC that
	// catches a corrupted flit models a zero-cost link-level retransmit
	// (the payload is repaired in place); corruption the CRC misses
	// propagates and is counted when it reaches the ejection port.
	BER float64
	// CrcBits is the modeled per-hop CRC width c: a corrupted flit is
	// detected with probability 1 - 2^-c. 0 defaults to 16 when BER > 0;
	// negative disables hop detection entirely so every corrupted flit
	// escapes to its destination.
	CrcBits int
}

// withDefaults fills unset fields with the paper's values and validates.
func (c Config) withDefaults() Config {
	if c.NumVCs == 0 {
		c.NumVCs = 2
	}
	if c.BufPerVC == 0 {
		c.BufPerVC = 4
	}
	if c.LinkLatency == 0 {
		c.LinkLatency = 4
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
	if c.CrcBits == 0 && c.BER > 0 {
		c.CrcBits = 16
	}
	return c
}

// validate panics on structurally impossible configurations; these are
// programming errors, not runtime conditions.
func (c Config) validate() {
	if c.NumVCs < 1 {
		panic(fmt.Sprintf("vcrouter: NumVCs must be >= 1, got %d", c.NumVCs))
	}
	if c.BufPerVC < 1 {
		panic(fmt.Sprintf("vcrouter: BufPerVC must be >= 1, got %d", c.BufPerVC))
	}
	if c.LinkLatency < 1 || c.CreditLatency < 1 || c.LocalLatency < 1 {
		panic("vcrouter: link latencies must be >= 1 cycle")
	}
	if c.BER < 0 || c.BER >= 1 || c.BER != c.BER {
		panic(fmt.Sprintf("vcrouter: BER must lie in [0, 1), got %v", c.BER))
	}
	if c.CrcBits > noc.MaxCrcBits {
		panic(fmt.Sprintf("vcrouter: CrcBits %d exceeds the modeled maximum of %d", c.CrcBits, noc.MaxCrcBits))
	}
}

// BuffersPerInput reports the total data-flit buffering per input port.
func (c Config) BuffersPerInput() int { return c.NumVCs * c.BufPerVC }
