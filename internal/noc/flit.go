// Package noc defines the messages that travel through the simulated
// networks: data flits, control flits, credits, and packet descriptors.
// These types are shared by the flit-reservation router (internal/core) and
// the baseline routers (internal/vcrouter, internal/wormhole).
package noc

import (
	"fmt"
	"math"

	"frfc/internal/sim"
)

// FlitType distinguishes the position of a flit within its packet. Under
// virtual-channel and wormhole flow control every data flit carries a type
// tag (the t-bit field of Table 1); under flit-reservation flow control only
// control flits do.
type FlitType uint8

// Flit positions within a packet.
const (
	HeadFlit FlitType = iota
	BodyFlit
	TailFlit
	// HeadTailFlit marks the single flit of a one-flit packet.
	HeadTailFlit
)

// String returns a short name for the flit type.
func (t FlitType) String() string {
	switch t {
	case HeadFlit:
		return "head"
	case BodyFlit:
		return "body"
	case TailFlit:
		return "tail"
	case HeadTailFlit:
		return "head+tail"
	default:
		return fmt.Sprintf("FlitType(%d)", uint8(t))
	}
}

// IsHead reports whether the flit opens a packet.
func (t FlitType) IsHead() bool { return t == HeadFlit || t == HeadTailFlit }

// IsTail reports whether the flit closes a packet.
func (t FlitType) IsTail() bool { return t == TailFlit || t == HeadTailFlit }

// PacketID uniquely identifies a packet within a simulation run.
type PacketID uint64

// Packet describes a packet to be delivered: the unit the traffic generator
// produces and the statistics collector accounts. The network decomposes it
// into flits.
//
// The node ids, the length and the attempt count are 32-bit, as in the flits
// that carry them, so that the packet arrays a run fills are 48 bytes an
// entry; a length or an attempt past math.MaxInt32 is refused where it is
// configured (MaxLen).
type Packet struct {
	ID       PacketID
	Src, Dst int32 // topology.NodeIDs
	Len      int32 // number of data flits

	// Attempts counts end-to-end retransmissions: 0 on the first
	// injection, incremented by the source network interface each time the
	// packet is re-offered after a loss notification or retry timeout.
	Attempts int32

	CreatedAt sim.Cycle // when the source created it (start of latency span)

	// InjectedAt is stamped by the network interface when the packet's
	// first flit (data, or control under flit reservation) enters the
	// network; the span CreatedAt..InjectedAt is pure source queueing.
	// Under end-to-end retry it is re-stamped on each re-injection.
	InjectedAt sim.Cycle

	Sampled bool // whether this packet belongs to the measurement sample
}

// MaxLen is the longest packet, and the most end-to-end retries, the 32-bit
// fields of Packet and the flits can count: configurations past it are
// refused by name, never wrapped.
const MaxLen = math.MaxInt32

// MaxCrcBits is the widest hop CRC the flit-reservation and virtual-channel
// fabrics model (core.Config.CrcBits, vcrouter.Config.CrcBits): a wider one is
// refused by name.
const MaxCrcBits = 62

// DataFlit is one flit of packet payload on the data network.
//
// Under flit-reservation flow control the router "never examines" a data
// flit: it is identified solely by its arrival time, and the identity fields
// below exist only so the simulator can verify that the pre-arranged schedule
// delivered the right payload to the right place (self-checking simulation).
// Under virtual-channel and wormhole flow control the Type and VC fields are
// genuinely carried on the wire (and charged as storage overhead in Table 1),
// and head flits carry the destination.
//
// Every field is as narrow as what it counts, the small ones last, so that a
// flit is 24 bytes: every hop copies it, and every pool slot and wire cell
// holds one.
type DataFlit struct {
	Packet *Packet
	Seq    int32 // 0-based index within the packet
	// Attempt is the packet's end-to-end transmission attempt this flit
	// belongs to (0 = first try). It is stamped at packetization time so
	// stragglers of an earlier, partially lost attempt remain
	// distinguishable from a retry's flits at the destination.
	Attempt int32

	// Fields carried on the wire only by the VC/wormhole baselines.
	VC   int32
	Type FlitType

	// Corrupted marks payload damaged by a link bit error (sim.Pipe's
	// bit-error model). The flag is simulator bookkeeping for damage the
	// wire cannot announce: routers only learn of it through a modeled CRC
	// check, and an escape that reaches the destination uncaught is a
	// silent-corruption delivery.
	Corrupted bool
}

// String renders the flit for diagnostics.
func (f DataFlit) String() string {
	if f.Packet == nil {
		return "data(nil)"
	}
	return fmt.Sprintf("data(pkt=%d seq=%d/%d %s)", f.Packet.ID, f.Seq, f.Packet.Len, f.Type)
}

// LeadEntry is one data-flit announcement inside a control flit: the index of
// the data flit within its packet and the cycle at which it will arrive at
// the receiving router's input (the time stamp of Figure 2, rewritten hop by
// hop as departures are scheduled).
type LeadEntry struct {
	Seq     int32
	Arrival sim.Cycle
}

// ControlFlit is one flit on the control network of flit-reservation flow
// control. A packet consists of one control head flit (carrying the
// destination) plus enough body flits that each data flit is led by exactly
// one entry; the final control flit is typed Tail (or HeadTail for packets
// whose control fits in one flit) so the control virtual channel can be
// released, exactly as in wormhole flow control.
//
// Like DataFlit it is laid out narrow, small fields last, in 48 bytes.
type ControlFlit struct {
	Packet *Packet
	// Leads holds up to d entries; d=1 in the paper's experiments. The list
	// travels with the flit and belongs to whoever holds the flit: once a
	// Send returns, the sender neither reads nor writes it again, and the
	// receiver may rewrite the entries in place or shorten the list — but
	// never grow it past the capacity it arrived with. A holder that wants
	// per-lead state of its own copies the entries into storage it owns (a
	// flit-reservation router's queue cell keeps such a list for the
	// network's life). Whoever retires the flit for good may hand the array to
	// a LeadArrays free list; nobody else may keep a reference to it past its
	// own Send.
	Leads []LeadEntry
	VC    int32 // control virtual channel id
	Dst   int32 // topology.NodeID, valid on head flits
	// Attempt is the packet's end-to-end transmission attempt this control
	// flit announces (0 = first try); it flows into the destination's
	// reassembly schedule so retries are never confused with stragglers.
	Attempt int32
	Type    FlitType

	// Corrupted marks a control flit damaged by a link bit error. This is
	// the uniquely dangerous corruption under flit reservation: the flit's
	// arrival-time stamps are garbled, so a router that fails to detect it
	// installs reservations that no longer describe the real data stream
	// (phantom reservations). Each hop's modeled CRC gets a chance to catch
	// it; an escape is processed as if valid.
	Corrupted bool
}

// String renders the control flit for diagnostics.
func (c ControlFlit) String() string {
	if c.Packet == nil {
		return "ctrl(nil)"
	}
	return fmt.Sprintf("ctrl(pkt=%d %s vc=%d leads=%v)", c.Packet.ID, c.Type, c.VC, c.Leads)
}

// VCCredit is the credit returned upstream by a virtual-channel or wormhole
// router when a flit leaves an input buffer, freeing one slot of the given
// virtual channel's queue (or of the shared pool when pooled buffering is
// enabled — the VC field then identifies the queue the flit left for
// accounting only).
type VCCredit struct {
	VC int32
}

// ReservationCredit is the credit returned upstream by a flit-reservation
// router: because reservations are made in advance, the credit announces the
// future cycle from which one more buffer of the sending input's pool will be
// free. The receiving output reservation table increments its free-buffer
// count from FreeFrom through the scheduling horizon.
//
// VC attributes the freed residency to the control virtual channel (of the
// link the credit travels against) whose packet put the flit there. The
// upstream scheduler uses this to maintain per-control-VC occupancy counts,
// which drive the buffer-reservation rule that keeps the shared pool from
// deadlocking the control network (see core's deadlock note).
type ReservationCredit struct {
	FreeFrom sim.Cycle
	VC       int32
}
