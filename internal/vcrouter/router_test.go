package vcrouter

import (
	"testing"

	"frfc/internal/noc"
	"frfc/internal/sim"
	"frfc/internal/topology"
)

// testRouter builds node 0 of a 2x2 mesh with test-owned pipes on its East
// input, East output and ejection port: the test plays the neighbor and the
// sink. The wires into the router wake it on its calendar as wired ones do —
// a router does not read a wire whose bit is not set — and those out of it
// wake nobody.
func testRouter(cfg Config) (r *Router, inCredit *sim.Pipe[noc.VCCredit], ej *sim.Pipe[noc.DataFlit]) {
	cfg = cfg.withDefaults()
	mesh := topology.NewMesh(2)
	r = newRouter(0, mesh, &cfg, sim.NewRNG(1))
	r.cal = make(sim.Calendar, sim.CalendarCells(max(cfg.LinkLatency, cfg.CreditLatency, cfg.LocalLatency)))
	// Feed the East input (from node 1 westward — we play the neighbor).
	inCredit = sim.NewPipe[noc.VCCredit](1, 4)
	r.in[topology.East].data = sim.NewPipe[noc.DataFlit](1, 1).Wakes(&r.cal, dataBit(topology.East))
	r.in[topology.East].creditOut = inCredit
	// Capture the East output.
	r.out[topology.East].data = sim.NewPipe[noc.DataFlit](1, 1)
	r.out[topology.East].creditIn = sim.NewPipe[noc.VCCredit](1, 4).Wakes(&r.cal, creditBit(topology.East))
	// Local ejection path.
	ej = sim.NewPipe[noc.DataFlit](1, 1)
	r.out[topology.Local].data = ej
	return r, inCredit, ej
}

// tick ticks the rig's router at cycle now and, playing the far ends of its
// wires out, takes what it sent then on the cycle it arrives: the flits out
// of East and Local, and the credits returned upstream on East.
func tick(r *Router, now sim.Cycle) (east, ejected []noc.DataFlit, credits int) {
	r.Tick(now)
	for _, a := range r.out[topology.East].data.Take(now + 1) {
		east = append(east, a.Item)
	}
	for _, a := range r.out[topology.Local].data.Take(now + 1) {
		ejected = append(ejected, a.Item)
	}
	return east, ejected, len(r.in[topology.East].creditOut.Take(now + 1))
}

// feedFlit sends f into the rig's East input at cycle now.
func feedFlit(r *Router, now sim.Cycle, f noc.DataFlit) {
	r.in[topology.East].data.Send(now, f)
}

// feedCredit returns one credit for vc to the rig's East output at cycle now.
func feedCredit(r *Router, now sim.Cycle, vc int) {
	r.out[topology.East].creditIn.Send(now, noc.VCCredit{VC: int32(vc)})
}

func mkPacket(id noc.PacketID, dst topology.NodeID, n int) []noc.DataFlit {
	return noc.DataFlits(&noc.Packet{ID: id, Dst: int32(dst), Len: int32(n)})
}

func TestRouterEjectsLocalTraffic(t *testing.T) {
	r, _, _ := testRouter(Config{NumVCs: 2, BufPerVC: 4, LinkLatency: 1})
	flits := mkPacket(1, 0, 3) // destination == router id: ejects
	now := sim.Cycle(0)
	var got []noc.DataFlit
	credits := 0
	for _, f := range flits {
		f.VC = 0
		feedFlit(r, now, f)
		_, ejected, c := tick(r, now)
		got, credits = append(got, ejected...), credits+c
		now++
	}
	for ; now < 20; now++ {
		_, ejected, c := tick(r, now)
		got, credits = append(got, ejected...), credits+c
	}
	if len(got) != 3 {
		t.Fatalf("ejected %d flits, want 3", len(got))
	}
	for i, f := range got {
		if int(f.Seq) != i {
			t.Fatalf("ejection order broken: flit %d has seq %d", i, f.Seq)
		}
	}
	// One credit per forwarded flit returned upstream.
	if credits != 3 {
		t.Fatalf("returned %d credits, want 3", credits)
	}
}

func TestRouterBlocksWithoutCredits(t *testing.T) {
	// East output credits start at BufPerVC; without returns, only that
	// many flits may leave. The test sender obeys the upstream credit
	// protocol itself (that is the contract recvFlits enforces).
	cfg := Config{NumVCs: 1, BufPerVC: 2, LinkLatency: 1}
	r, _, _ := testRouter(cfg)
	// Destination node 1 is east of node 0 on a 2x2 mesh.
	flits := mkPacket(1, 1, 5)
	now := sim.Cycle(0)
	myCredits := cfg.BufPerVC
	i, sent := 0, 0
	for ; now < 15; now++ {
		if i < len(flits) && myCredits > 0 {
			f := flits[i]
			f.VC = 0
			feedFlit(r, now, f)
			myCredits--
			i++
		}
		east, _, credits := tick(r, now)
		sent, myCredits = sent+len(east), myCredits+credits
	}
	if sent != cfg.BufPerVC {
		t.Fatalf("router sent %d flits with %d downstream credits and no returns", sent, cfg.BufPerVC)
	}
}

func TestRouterResumesOnCredit(t *testing.T) {
	cfg := Config{NumVCs: 1, BufPerVC: 2, LinkLatency: 1}
	r, _, _ := testRouter(cfg)
	flits := mkPacket(1, 1, 4)
	now := sim.Cycle(0)
	drain := 0
	for _, f := range flits {
		f.VC = 0
		feedFlit(r, now, f)
		east, _, _ := tick(r, now)
		drain += len(east)
		now++
	}
	for ; now < 10; now++ {
		east, _, _ := tick(r, now)
		drain += len(east)
	}
	if drain != 2 {
		t.Fatalf("pre-credit drain = %d, want 2", drain)
	}
	// Return two credits; the remaining two flits flow.
	feedCredit(r, now, 0)
	feedCredit(r, now, 0)
	for end := now + 8; now < end; now++ {
		east, _, _ := tick(r, now)
		drain += len(east)
	}
	if drain != 4 {
		t.Fatalf("post-credit drain = %d, want 4", drain)
	}
}

func TestVCAllocationReleasedByTail(t *testing.T) {
	cfg := Config{NumVCs: 1, BufPerVC: 4, LinkLatency: 1}
	r, _, _ := testRouter(cfg)
	now := sim.Cycle(0)
	sent := 0
	// step plays a well-behaved downstream: consume whatever comes out
	// and return one credit per consumed flit.
	step := func() {
		east, _, _ := tick(r, now)
		now++
		for range east {
			sent++
			feedCredit(r, now, 0)
		}
	}
	for _, f := range mkPacket(1, 1, 2) {
		f.VC = 0
		feedFlit(r, now, f)
		step()
	}
	for i := 0; i < 6; i++ {
		step()
	}
	if r.out[topology.East].owned[0] {
		t.Fatal("output VC still owned after the tail left")
	}
	// A second packet reuses the VC.
	for _, f := range mkPacket(2, 1, 2) {
		f.VC = 0
		feedFlit(r, now, f)
		step()
	}
	for i := 0; i < 6; i++ {
		step()
	}
	if sent != 4 {
		t.Fatalf("forwarded %d flits across two packets, want 4", sent)
	}
}

// TestBufferOverflowPanics: a flit fed into a full channel stops the run with
// the router's own overflow message. A local packet and the first half of an
// eastbound one pass first, one flit every third cycle, so that every wire out
// of the rig carries items on cycles that share a slot: the rig must take each
// on its cycle, or a send into an untaken slot panics before the overflow.
func TestBufferOverflowPanics(t *testing.T) {
	r, _, _ := testRouter(Config{NumVCs: 1, BufPerVC: 1, LinkLatency: 1})
	now := sim.Cycle(0)
	// feed sends f at cycle now and ticks the rig for gap cycles.
	feed := func(f noc.DataFlit, gap int) {
		f.VC = 0
		feedFlit(r, now, f)
		for end := now + sim.Cycle(gap); now < end; now++ {
			tick(r, now)
		}
	}
	wantPanic(t, "in E vc 0 buffer overflow", func() {
		for _, f := range mkPacket(1, 0, 6) {
			feed(f, 3)
		}
		// The neighbour has room for four flits and returns no credit: the
		// eastbound packet's first four leave, the fifth waits and the
		// sixth, fed the next cycle, overflows as it lands.
		r.out[topology.East].credits[0] = 4
		flits := mkPacket(2, 1, 6)
		for _, f := range flits[:4] {
			feed(f, 3)
		}
		feed(flits[4], 1)
		feed(flits[5], 2)
	})
}

func TestConfigValidation(t *testing.T) {
	for _, cfg := range []Config{
		{NumVCs: -1},
		{NumVCs: 1, BufPerVC: -2},
		{NumVCs: 1, BufPerVC: 1, LinkLatency: -4},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v did not panic", cfg)
				}
			}()
			cfg := cfg.withDefaults()
			cfg.validate()
		}()
	}
}

func TestBuffersPerInput(t *testing.T) {
	c := Config{NumVCs: 4, BufPerVC: 4}
	if c.BuffersPerInput() != 16 {
		t.Fatalf("BuffersPerInput = %d, want 16", c.BuffersPerInput())
	}
}
