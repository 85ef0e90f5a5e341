package packetswitch

import (
	"fmt"
	"slices"
	"testing"

	"frfc/internal/noc"
	"frfc/internal/sim"
	"frfc/internal/topology"
)

// TestDueCalendarMatchesPolling holds the calendar-driven network to a twin
// that polls every wire every cycle: before each tick, every node of the twin
// has the bit of every wire into its router, interface and sink set in its
// word for the cycle, so each component reads each of its wires, as they did
// before the calendar. After every cycle the calendar-driven network passes
// the calendar audit (sim.Calendar.Audit), and the two hold the same wires,
// packet buffers, credits and random streams; by the end they have reported
// the same ejections and deliveries on the same cycles. Each mode runs twice,
// the second time after a Reset to a new seed with the mesh still full, and
// then drains.
func TestDueCalendarMatchesPolling(t *testing.T) {
	for _, mode := range []Mode{StoreAndForward, CutThrough} {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := Config{Mode: mode, PacketBuffers: 3, MaxPacketLen: 8, LinkLatency: 3, CreditLatency: 2, LocalLatency: 1}
			mesh := topology.NewMesh(4)
			var logs [2][]string
			hooks := func(i int) *noc.Hooks {
				return &noc.Hooks{
					PacketDelivered: func(p *noc.Packet, now sim.Cycle) {
						logs[i] = append(logs[i], fmt.Sprintf("delivered %d @%d", p.ID, now))
					},
					FlitEjected: func(now sim.Cycle) { logs[i] = append(logs[i], fmt.Sprintf("ejected @%d", now)) },
				}
			}
			cal, ref := New(mesh, cfg, 7, hooks(0)), New(mesh, cfg, 7, hooks(1))
			tick := func(now sim.Cycle) {
				for id, r := range ref.routers {
					cell := r.cal.Cell(now)
					ref.eachWire(id, func(bit uint32, _ sim.Cycle) { *cell |= bit })
				}
				cal.Tick(now)
				ref.Tick(now)
				for id, r := range cal.routers {
					if err := r.cal.Audit(now, func(due func(uint32, sim.Cycle)) { cal.eachWire(id, due) }); err != nil {
						t.Fatalf("cycle %d node %d: %v", now, id, err)
					}
				}
				if a, b := cal.fingerprint(), ref.fingerprint(); !slices.Equal(a, b) {
					t.Fatalf("cycle %d: the calendar-driven network and the polling one differ:\n%v\n%v", now, a, b)
				}
			}
			now, offered := sim.Cycle(0), 0
			for phase, seed := range []uint64{7, 8} {
				if phase > 0 {
					cal.Reset(seed, hooks(0))
					ref.Reset(seed, hooks(1))
				}
				rng := sim.NewRNG(seed)
				for now = 0; now < 1000; now++ {
					for id := 0; id < mesh.N(); id++ {
						if !rng.Bool(0.05) {
							continue
						}
						dst := topology.NodeID(rng.Intn(mesh.N() - 1))
						if dst >= topology.NodeID(id) {
							dst++
						}
						offered++
						length := int32(1 + rng.Intn(cfg.MaxPacketLen))
						for _, net := range []*Network{cal, ref} {
							net.Offer(&noc.Packet{ID: noc.PacketID(offered), Src: int32(id), Dst: int32(dst), Len: length, CreatedAt: now})
						}
					}
					tick(now)
				}
			}
			for end := now + 20000; cal.InFlightPackets() > 0; now++ {
				if now == end {
					t.Fatalf("%d packets still in flight 20000 cycles after the sources stopped", cal.InFlightPackets())
				}
				tick(now)
			}
			if len(logs[0]) != len(logs[1]) {
				t.Fatalf("%d events against the polling network's %d", len(logs[0]), len(logs[1]))
			}
			for i := range logs[0] {
				if logs[0][i] != logs[1][i] {
					t.Fatalf("event %d: %s, the polling network %s", i, logs[0][i], logs[1][i])
				}
			}
			if c := cal.Counts(); c.Delivered < 300 {
				t.Fatalf("the walk saw little: counts %+v", c)
			}
		})
	}
}

// eachWire calls due with the bit of every wire into node id's router,
// interface and sink, and each cycle the wire delivers at (sim.Pipe.Arrivals).
func (n *Network) eachWire(id int, due func(bit uint32, at sim.Cycle)) {
	r := n.routers[id]
	for p := topology.Port(0); p < topology.NumPorts; p++ {
		if w := r.in[p].data; w != nil {
			w.Arrivals(dataBit(p), due)
		}
		if w := r.out[p].creditIn; w != nil {
			w.Arrivals(creditBit(p), due)
		}
	}
	n.nis[id].creditIn.Arrivals(niBit, due)
	n.Sinks[id].Data.Arrivals(noc.SinkBit, due)
}

// fingerprint lists what a cycle leaves behind in the network: the counts,
// every router's random stream (as the next draw a copy of it makes), packet
// buffers and output channels, every interface's progress, and every cycle
// each wire delivers at.
func (n *Network) fingerprint() []int64 {
	c := n.Counts()
	s := []int64{c.Offered, c.Delivered}
	for id, r := range n.routers {
		x, rng := n.nis[id], *r.rng
		s = append(s, int64(rng.Uint64()), int64(x.queue.Len()), int64(len(x.current)), int64(x.next), int64(x.credits))
		for p := range r.in {
			in, o := &r.in[p], &r.out[p]
			if !in.exists {
				continue
			}
			s = append(s, int64(in.assembly), int64(o.credits), int64(o.busyWith))
			for i := range in.slots {
				sl := &in.slots[i]
				s = append(s, int64(sl.received), int64(sl.sent), int64(sl.route), int64(sl.headAt), int64(sl.lastAt), b2i(sl.occupied), b2i(sl.granted))
			}
		}
		n.eachWire(id, func(bit uint32, at sim.Cycle) {
			if at != sim.Never {
				s = append(s, int64(bit), int64(at))
			}
		})
	}
	return s
}

// b2i is 1 for true.
func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
