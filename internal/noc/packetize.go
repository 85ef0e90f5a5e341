package noc

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

// DataFlits decomposes a packet into its data flits in sequence order. The
// virtual-channel and wormhole baselines use the Type field on the wire;
// the flit-reservation network ignores it.
func DataFlits(p *Packet) []DataFlit {
	if p.Len < 1 {
		panic("noc: packet must contain at least one data flit")
	}
	flits := make([]DataFlit, p.Len)
	for i := range flits {
		flits[i] = DataFlit{Packet: p, Seq: i, Attempt: p.Attempts, Type: TypeFor(i, p.Len)}
	}
	return flits
}

// ControlFlits builds the control-flit sequence for a packet under
// flit-reservation flow control, with each control flit leading up to d data
// flits (d=1 in the paper's measured configurations; Section 5 discusses
// wider control flits). The head flit carries the destination and leads the
// first min(d, Len) data flits; each subsequent body flit leads the next d.
// Arrival times are left zero; the source's injection scheduler fills them.
func ControlFlits(p *Packet, d int) []ControlFlit {
	if d < 1 {
		panic("noc: control flit must lead at least one data flit")
	}
	if p.Len < 1 {
		panic("noc: packet must contain at least one data flit")
	}
	n := (p.Len + d - 1) / d // number of control flits
	flits := make([]ControlFlit, 0, n)
	// One array holds every flit's leads; each flit gets its own stretch,
	// capped so that whoever rewrites one flit's list cannot reach the next.
	leads := make([]LeadEntry, p.Len)
	for seq := range leads {
		leads[seq].Seq = seq
	}
	for i := 0; i < n; i++ {
		lo := i * d
		hi := lo + d
		if hi > p.Len {
			hi = p.Len
		}
		cf := ControlFlit{Packet: p, Type: TypeFor(i, n), Attempt: p.Attempts, Leads: leads[lo:hi:hi]}
		if cf.Type.IsHead() {
			cf.Dst = p.Dst
		}
		flits = append(flits, cf)
	}
	return flits
}
