package core

import (
	"testing"

	"frfc/internal/noc"
	"frfc/internal/sim"
)

// testNI builds an NI with test-owned pipes on both ends. The two credit
// wires wake the interface on its calendar, as wired ones do, so a test that
// plays the router's side only sends.
func testNI(cfg Config) (*NI, *sim.Pipe[noc.ControlFlit], *sim.Pipe[noc.DataFlit], *sim.Pipe[noc.ReservationCredit], *sim.Pipe[noc.VCCredit]) {
	cfg = cfg.WithDefaults()
	n := newNI(0, &cfg, sim.NewRNG(1), &noc.Hooks{})
	ctrl := sim.NewPipe[noc.ControlFlit](cfg.CtrlLinkLatency, cfg.CtrlFlitsPerCycle)
	data := sim.NewPipe[noc.DataFlit](cfg.LocalLatency, 1)
	resv := sim.NewPipe[noc.ReservationCredit](cfg.CreditLatency, cfg.resvCreditWidth()).Wakes(&n.cal, niResv)
	ctrlCredit := sim.NewPipe[noc.VCCredit](cfg.CreditLatency, cfg.CtrlVCs).Wakes(&n.cal, niCtrl)
	n.ctrlOut = ctrl
	n.dataOut = data
	n.resvCreditIn = resv
	n.ctrlCreditIn = ctrlCredit
	return n, ctrl, data, resv, ctrlCredit
}

func TestNIInjectsControlBeforeData(t *testing.T) {
	n, ctrl, data, _, _ := testNI(fastControl())
	n.offer(&noc.Packet{ID: 1, Src: 0, Dst: 5, Len: 3, CreatedAt: 0})
	var ctrlAt, dataAt []sim.Cycle
	for now := sim.Cycle(0); now < 30; now++ {
		n.Tick(now)
		for range ctrl.Take(now + 1) {
			ctrlAt = append(ctrlAt, now)
		}
		for range data.Take(now + 1) {
			dataAt = append(dataAt, now)
		}
	}
	if len(ctrlAt) != 3 || len(dataAt) != 3 {
		t.Fatalf("injected %d control and %d data flits, want 3 and 3", len(ctrlAt), len(dataAt))
	}
	for i := range ctrlAt {
		if ctrlAt[i] >= dataAt[i] {
			t.Fatalf("control flit %d injected at %d, not before its data flit at %d", i, ctrlAt[i], dataAt[i])
		}
	}
}

func TestNILeadCyclesHonored(t *testing.T) {
	cfg := leadingControl(4)
	n, ctrl, data, _, _ := testNI(cfg)
	n.offer(&noc.Packet{ID: 1, Src: 0, Dst: 5, Len: 2, CreatedAt: 0})
	ctrlSent := map[int]sim.Cycle{} // seq -> inject cycle
	dataSent := map[int]sim.Cycle{}
	for now := sim.Cycle(0); now < 40; now++ {
		n.Tick(now)
		for _, a := range ctrl.Take(now + 1) {
			cf := a.Item
			for _, le := range cf.Leads {
				ctrlSent[int(le.Seq)] = now
			}
		}
		for _, a := range data.Take(now + 1) {
			f := a.Item
			dataSent[int(f.Seq)] = now
		}
	}
	for seq, c := range ctrlSent {
		d, ok := dataSent[seq]
		if !ok {
			t.Fatalf("data flit %d never injected", seq)
		}
		if d < c+cfg.LeadCycles {
			t.Fatalf("flit %d: data at %d, control at %d — lead of %d violated", seq, d, c, cfg.LeadCycles)
		}
	}
}

func TestNIControlFlitCarriesAccurateArrivals(t *testing.T) {
	cfg := fastControl()
	n, ctrl, data, _, _ := testNI(cfg)
	n.offer(&noc.Packet{ID: 1, Src: 0, Dst: 5, Len: 2, CreatedAt: 0})
	announced := map[int]sim.Cycle{}
	arrived := map[int]sim.Cycle{}
	for now := sim.Cycle(0); now < 40; now++ {
		n.Tick(now)
		for _, a := range ctrl.Take(now + 1) {
			cf := a.Item
			for _, le := range cf.Leads {
				announced[int(le.Seq)] = le.Arrival
			}
		}
		for _, a := range data.Take(now) {
			f := a.Item
			arrived[int(f.Seq)] = now
		}
	}
	if len(announced) != 2 || len(arrived) != 2 {
		t.Fatalf("announced %d, arrived %d; want 2 and 2", len(announced), len(arrived))
	}
	for seq, a := range announced {
		if arrived[seq] != a {
			t.Fatalf("flit %d announced to arrive at %d but arrived at %d", seq, a, arrived[seq])
		}
	}
}

func TestNIRespectsControlCredits(t *testing.T) {
	cfg := fastControl() // CtrlBufPerVC = 3
	n, ctrl, data, resv, ctrlCredit := testNI(cfg)
	// One long packet: 8 control flits, but only 3 control credits. The
	// test plays the router's input scheduler for the reservation
	// credits (scheduling each injected flit's buffer release promptly)
	// so that only the control-credit limit binds. It takes the data flits
	// off their wire on the cycle they arrive, as the router would.
	n.offer(&noc.Packet{ID: 1, Src: 0, Dst: 5, Len: 8, CreatedAt: 0})
	sent := 0
	now := sim.Cycle(0)
	step := func(returnCtrl bool) {
		n.Tick(now)
		data.Take(now + 1)
		for _, a := range ctrl.Take(now + 1) {
			cf := a.Item
			sent++
			for _, le := range cf.Leads {
				resv.Send(now+1, noc.ReservationCredit{FreeFrom: le.Arrival, VC: cf.VC})
			}
			if returnCtrl {
				ctrlCredit.Send(now+1, noc.VCCredit{VC: cf.VC})
			}
		}
		now++
	}
	for now < 20 {
		step(false)
	}
	if sent != cfg.CtrlBufPerVC {
		t.Fatalf("NI sent %d control flits with %d credits and no returns", sent, cfg.CtrlBufPerVC)
	}
	// Returning control credits (3 outstanding plus one per new flit)
	// resumes injection all the way.
	for i := 0; i < 3; i++ {
		ctrlCredit.Send(now, noc.VCCredit{VC: 0})
		step(true)
	}
	for end := now + 25; now < end; {
		step(true)
	}
	if sent != 8 {
		t.Fatalf("NI sent %d control flits after credit returns, want 8", sent)
	}
}

func TestNIFIFOSourceSerializesPackets(t *testing.T) {
	cfg := fastControl()
	n, ctrl, data, resv, ctrlCredit := testNI(cfg)
	n.offer(&noc.Packet{ID: 1, Src: 0, Dst: 5, Len: 2, CreatedAt: 0})
	n.offer(&noc.Packet{ID: 2, Src: 0, Dst: 6, Len: 2, CreatedAt: 0})
	var order []noc.PacketID
	for now := sim.Cycle(0); now < 40; now++ {
		n.Tick(now)
		data.Take(now + 1)
		for _, a := range ctrl.Take(now + 1) {
			cf := a.Item
			order = append(order, cf.Packet.ID)
			// Play a healthy downstream: return both credit kinds.
			ctrlCredit.Send(now+1, noc.VCCredit{VC: cf.VC})
			for _, le := range cf.Leads {
				resv.Send(now+1, noc.ReservationCredit{FreeFrom: le.Arrival, VC: cf.VC})
			}
		}
	}
	want := []noc.PacketID{1, 1, 2, 2}
	if len(order) != len(want) {
		t.Fatalf("control injections: %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("FIFO violated: injections %v", order)
		}
	}
}

func TestNIInterleaveAllowsConcurrentPackets(t *testing.T) {
	cfg := fastControl()
	cfg.SourceInterleave = true
	n, ctrl, data, _, _ := testNI(cfg)
	n.offer(&noc.Packet{ID: 1, Src: 0, Dst: 5, Len: 3, CreatedAt: 0})
	n.offer(&noc.Packet{ID: 2, Src: 0, Dst: 6, Len: 3, CreatedAt: 0})
	firstOfTwo := sim.Cycle(-1)
	lastOfOne := sim.Cycle(-1)
	for now := sim.Cycle(0); now < 40; now++ {
		n.Tick(now)
		data.Take(now + 1)
		for _, a := range ctrl.Take(now + 1) {
			cf := a.Item
			if cf.Packet.ID == 2 && firstOfTwo < 0 {
				firstOfTwo = now
			}
			if cf.Packet.ID == 1 {
				lastOfOne = now
			}
		}
	}
	if firstOfTwo < 0 || lastOfOne < 0 {
		t.Fatal("packets not injected")
	}
	if firstOfTwo > lastOfOne {
		t.Fatalf("interleaving NI serialized packets: pkt2 started %d, pkt1 finished %d", firstOfTwo, lastOfOne)
	}
}

func TestSinkExpectAndVerify(t *testing.T) {
	s := newSink(0, 33, &noc.Hooks{})
	p := &noc.Packet{ID: 9, Len: 1}
	s.Expect(0, 5, p, 0, 0)
	s.dataIn.Send(4, noc.DataFlit{Packet: p, Seq: 0})
	delivered := false
	s.hooks = &noc.Hooks{PacketDelivered: func(q *noc.Packet, now sim.Cycle) {
		delivered = q == p && now == 5
	}}
	s.Tick(5)
	if !delivered {
		t.Fatal("sink did not deliver the expected packet")
	}
}

func TestSinkPanicsOnReassemblyMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched flit did not panic")
		}
	}()
	s := newSink(0, 33, &noc.Hooks{})
	p := &noc.Packet{ID: 9, Len: 2}
	q := &noc.Packet{ID: 8, Len: 2}
	s.Expect(0, 5, p, 0, 0)
	s.dataIn.Send(4, noc.DataFlit{Packet: q, Seq: 0})
	s.Tick(5)
}

func TestSinkPanicsOnUnscheduledFlit(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unscheduled flit did not panic")
		}
	}()
	s := newSink(0, 33, &noc.Hooks{})
	s.dataIn.Send(4, noc.DataFlit{Packet: &noc.Packet{ID: 1, Len: 1}})
	s.Tick(5)
}

func TestSinkDetectsLoss(t *testing.T) {
	lost := false
	s := newSink(0, 33, &noc.Hooks{})
	p := &noc.Packet{ID: 9, Len: 2}
	s.hooks = &noc.Hooks{PacketLost: func(q *noc.Packet, now sim.Cycle) { lost = q == p }}
	s.Expect(0, 5, p, 0, 0)
	// Nothing arrives at cycle 5.
	s.Tick(5)
	if !lost {
		t.Fatal("sink did not detect the missing flit")
	}
	if s.pendingWork() != 0 {
		t.Fatal("lost expectation not cleaned up")
	}
}
