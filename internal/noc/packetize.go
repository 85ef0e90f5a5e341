package noc

import "slices"

// TypeFor returns the flit type for position seq within a packet of length n.
func TypeFor(seq, n int) FlitType {
	switch {
	case n == 1:
		return HeadTailFlit
	case seq == 0:
		return HeadFlit
	case seq == n-1:
		return TailFlit
	default:
		return BodyFlit
	}
}

// DataFlits decomposes a packet into its data flits in sequence order, in a
// slice of their own. The virtual-channel and wormhole baselines use the Type
// field on the wire; the flit-reservation network ignores it.
func DataFlits(p *Packet) []DataFlit { return AppendDataFlits(nil, p) }

// AppendDataFlits is DataFlits appended to dst, the form an interface that
// sends its flits by value packetises into its own scratch with.
func AppendDataFlits(dst []DataFlit, p *Packet) []DataFlit {
	if p.Len < 1 {
		panic("noc: packet must contain at least one data flit")
	}
	n := int(p.Len)
	dst = slices.Grow(dst, n)
	for i := range n {
		dst = append(dst, DataFlit{Packet: p, Seq: int32(i), Attempt: p.Attempts, Type: TypeFor(i, n)})
	}
	return dst
}

// LeadArrays is a free list of lead arrays, each of the capacity one control
// flit needs (LeadsPerCtrl). An array is in at most one place: on the list, or
// with the one holder of the control flit whose Leads it backs. Only whoever
// retires a flit for good puts its array back.
type LeadArrays [][]LeadEntry

// Take returns an empty lead list of capacity d: off the list when it has
// one, made otherwise (always, by a nil list).
func (f *LeadArrays) Take(d int) []LeadEntry {
	if f == nil || len(*f) == 0 {
		return make([]LeadEntry, 0, d)
	}
	a := (*f)[len(*f)-1]
	*f = (*f)[:len(*f)-1]
	return a
}

// Put returns a retired control flit's lead array to the list.
func (f *LeadArrays) Put(leads []LeadEntry) { *f = append(*f, leads[:0]) }

// ControlFlits builds the control-flit sequence for a packet under
// flit-reservation flow control, with each control flit leading up to d data
// flits (d=1 in the paper's measured configurations; Section 5 discusses
// wider control flits). Each flit's lead list is an array of its own, cut from
// one made for the packet, so that whoever rewrites one flit's list cannot
// reach the next.
func ControlFlits(p *Packet, d int) []ControlFlit {
	if d < 1 {
		panic("noc: control flit must lead at least one data flit")
	}
	if p.Len < 1 {
		panic("noc: packet must contain at least one data flit")
	}
	n := (int(p.Len) + d - 1) / d // number of control flits
	cfs := make([]ControlFlit, n)
	cut := make([]LeadEntry, n*d)
	for i := range cfs {
		cfs[i] = ControlFlitAt(p, i, d, cut[i*d:i*d:(i+1)*d])
	}
	return cfs
}

// ControlFlitAt builds control flit i of the sequence ControlFlits describes,
// its lead list in the empty array leads (capacity d), so that an interface can
// make each flit when it sends it. The head flit carries the destination and
// leads the first min(d, Len) data flits; each subsequent flit leads the next
// d. Arrival times are left zero; the source's injection scheduler fills them.
func ControlFlitAt(p *Packet, i, d int, leads []LeadEntry) ControlFlit {
	n := int(p.Len)
	for seq := i * d; seq < min(i*d+d, n); seq++ {
		leads = append(leads, LeadEntry{Seq: int32(seq)})
	}
	cf := ControlFlit{Packet: p, Type: TypeFor(i, (n+d-1)/d), Attempt: p.Attempts, Leads: leads}
	if cf.Type.IsHead() {
		cf.Dst = p.Dst
	}
	return cf
}
