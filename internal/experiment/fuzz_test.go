package experiment

import (
	"fmt"
	"math"
	"testing"

	"frfc/internal/core"
	"frfc/internal/noc"
	"frfc/internal/sim"
	"frfc/internal/topology"
)

// TestFuzzAllNetworksConserveFlits drives every flow-control implementation
// with randomized shapes (mesh radix, packet length, load, and
// method-specific knobs) and checks the conservation invariants that no
// configuration may violate: every offered packet is eventually delivered
// exactly once, every flit of it is ejected, the network's own Counts agree
// with what its hooks reported, and the network drains to empty once offers
// stop. Internal reservation/credit violations panic on their own. The
// trials after the first 80 are virtual-channel networks of 1 to 16
// channels a port, so a router's channel bits (5 × NumVCs of them) often
// cross a 64-bit word edge.
func TestFuzzAllNetworksConserveFlits(t *testing.T) {
	rng := sim.NewRNG(20260704)
	flows := []Flow{FlitReservation, VirtualChannel, Wormhole, StoreForward, CutThrough, CircuitSwitch}
	const trials, wideVCTrials = 80, 16
	for trial := 0; trial < trials+wideVCTrials; trial++ {
		flow := flows[trial%len(flows)]
		if trial >= trials {
			flow = VirtualChannel
		}
		radix := 3 + rng.Intn(3)
		pktLen := 1 + rng.Intn(8)
		seed := rng.Uint64()
		var spec Spec
		switch flow {
		case FlitReservation:
			wiring := FastControl
			lead := sim.Cycle(0)
			if rng.Bool(0.5) {
				wiring = LeadingControl
				lead = sim.Cycle(1 + rng.Intn(4))
			}
			buffers := 5 + rng.Intn(9)
			ctrlVCs := 2 + rng.Intn(3)
			if buffers < ctrlVCs {
				buffers = ctrlVCs
			}
			spec = FRSpec("fuzz-fr", wiring, buffers, ctrlVCs, lead, pktLen)
			spec.FR.Horizon = sim.Cycle(12 + rng.Intn(50))
			if d := 1 + rng.Intn(3); spec.FR.DataBuffers >= d+spec.FR.CtrlVCs-1 {
				spec.FR.LeadsPerCtrl = d
			}
			spec.FR.AllOrNothing = rng.Bool(0.3)
			spec.FR.SourceInterleave = rng.Bool(0.3)
		case VirtualChannel:
			vcs := 1 + rng.Intn(4)
			if trial >= trials {
				vcs = 1 + rng.Intn(16)
			}
			spec = vcSpec("fuzz-vc", FastControl, vcs, pktLen)
			spec.VC.BufPerVC = 1 + rng.Intn(6)
			spec.VC.SharedPool = rng.Bool(0.3)
			spec.VC.SourceInterleave = rng.Bool(0.3)
		case Wormhole:
			spec = WormholeSpec("fuzz-wh", FastControl, 1+rng.Intn(10), pktLen)
		case StoreForward, CutThrough:
			spec = PacketSwitchSpec("fuzz-ps", flow, FastControl, 1+rng.Intn(3), pktLen)
		case CircuitSwitch:
			spec = CircuitSpec("fuzz-cs", FastControl, pktLen)
			spec.CS.ProbeBuffers = 1 + rng.Intn(6)
		}
		spec.MeshRadix = radix
		detail := ""
		switch flow {
		case FlitReservation:
			detail = fmt.Sprintf("-b%d-v%d-d%d-aon%v", spec.FR.DataBuffers, spec.FR.CtrlVCs, spec.FR.LeadsPerCtrl, spec.FR.AllOrNothing)
		case VirtualChannel:
			detail = fmt.Sprintf("-v%d-b%d-pool%v", spec.VC.NumVCs, spec.VC.BufPerVC, spec.VC.SharedPool)
		}
		name := fmt.Sprintf("trial%02d-%s-k%d-L%d%s", trial, flow, radix, pktLen, detail)
		t.Run(name, func(t *testing.T) {
			mesh := topology.NewMesh(radix)
			var delivered, ejectedFlits int64
			deliveredSet := map[noc.PacketID]bool{}
			hooks := &noc.Hooks{
				PacketDelivered: func(p *noc.Packet, now sim.Cycle) {
					if deliveredSet[p.ID] {
						t.Errorf("packet %d delivered twice", p.ID)
					}
					deliveredSet[p.ID] = true
					delivered++
				},
				FlitEjected: func(now sim.Cycle) { ejectedFlits++ },
			}
			net, _ := NewNetwork(spec, hooks)
			load := 0.1 + rng.Float64()*0.5
			rate := load * mesh.CapacityPerNode() / float64(pktLen)
			offered := int64(0)
			now := sim.Cycle(0)
			src := sim.NewRNG(seed)
			for ; now < 1500; now++ {
				for id := 0; id < mesh.N(); id++ {
					if src.Bool(rate) {
						dst := topology.NodeID(src.Intn(mesh.N() - 1))
						if dst >= topology.NodeID(id) {
							dst++
						}
						offered++
						net.Offer(&noc.Packet{ID: noc.PacketID(offered), Src: int32(id), Dst: int32(dst), Len: int32(pktLen), CreatedAt: now})
					}
				}
				net.Tick(now)
			}
			for net.InFlightPackets() > 0 && now < 3000000 {
				net.Tick(now)
				now++
			}
			if got := net.InFlightPackets(); got != 0 {
				if d, ok := net.(interface{ DumpState() string }); ok {
					t.Logf("state dump:\n%s", d.DumpState())
				}
				t.Fatalf("failed to drain: %d packets in flight after %d cycles", got, now)
			}
			if delivered != offered {
				t.Fatalf("delivered %d of %d offered packets", delivered, offered)
			}
			if ejectedFlits != offered*int64(pktLen) {
				t.Fatalf("flit conservation broken: offered %d flits, ejected %d", offered*int64(pktLen), ejectedFlits)
			}
			if c := net.Counts(); c.Offered != offered || c.Delivered != delivered {
				t.Fatalf("Counts() disagrees with the hooks: offered %d delivered %d, counted %+v", offered, delivered, c)
			}
		})
	}
}

// TestFuzzRecoveryConservesPackets drives the flit-reservation recovery layer
// with randomized fault rates, retry budgets, backoffs and (sometimes
// pathologically short) retry timeouts, and checks the packet conservation
// law that must hold however the dice land: every offered packet resolves as
// exactly one of delivered, lost (retry disabled) or abandoned. With retries
// enabled and loss at or below 5%, a generous budget must deliver everything.
// The no-progress watchdog is armed and must never fire.
func TestFuzzRecoveryConservesPackets(t *testing.T) {
	rng := sim.NewRNG(20260806)
	const trials = 30
	for trial := 0; trial < trials; trial++ {
		radix := 3 + rng.Intn(2)
		pktLen := 1 + rng.Intn(6)
		dataRate := rng.Float64() * 0.06
		ctrlRate := 0.0
		if rng.Bool(0.5) {
			ctrlRate = rng.Float64() * 0.04
		}
		retry := trial%2 == 1
		cfg := FR6(FastControl, pktLen).FR
		cfg.DataFaultRate = dataRate
		cfg.CtrlFaultRate = ctrlRate
		cfg.WatchdogCycles = 50000
		cfg.SourceInterleave = rng.Bool(0.3)
		if retry {
			cfg.RetryLimit = 6 + rng.Intn(6)
			cfg.RetryBackoffBase = sim.Cycle(1 + rng.Intn(128))
			if rng.Bool(0.5) {
				// Sometimes pathologically short: spurious timeouts
				// must not break conservation.
				cfg.RetryTimeout = sim.Cycle(10 + rng.Intn(4000))
			}
		}
		seed := rng.Uint64()
		name := fmt.Sprintf("trial%02d-k%d-L%d-data%.3f-ctrl%.3f-retry%v", trial, radix, pktLen, dataRate, ctrlRate, retry)
		t.Run(name, func(t *testing.T) {
			mesh := topology.NewMesh(radix)
			var delivered, lost, abandoned int64
			resolvedSet := map[noc.PacketID]int{}
			hooks := &noc.Hooks{
				PacketDelivered: func(p *noc.Packet, now sim.Cycle) { delivered++; resolvedSet[p.ID]++ },
				PacketAbandoned: func(p *noc.Packet, now sim.Cycle) { abandoned++; resolvedSet[p.ID]++ },
				PacketLost: func(p *noc.Packet, now sim.Cycle) {
					lost++
					if !retry {
						resolvedSet[p.ID]++
					}
				},
				Wedged: func(now sim.Cycle, snapshot string) {
					t.Errorf("watchdog fired:\n%s", snapshot)
				},
			}
			net := core.New(mesh, cfg, seed, hooks)
			src := sim.NewRNG(seed ^ 0xABCDEF)
			offered := int64(0)
			now := sim.Cycle(0)
			for ; now < 1200; now++ {
				for id := 0; id < mesh.N(); id++ {
					if src.Bool(0.02) {
						dst := topology.NodeID(src.Intn(mesh.N() - 1))
						if dst >= topology.NodeID(id) {
							dst++
						}
						offered++
						net.Offer(&noc.Packet{ID: noc.PacketID(offered), Src: int32(id), Dst: int32(dst), Len: int32(pktLen), CreatedAt: now})
					}
				}
				net.Tick(now)
			}
			for net.InFlightPackets() > 0 && now < 5000000 {
				net.Tick(now)
				now++
			}
			if got := net.InFlightPackets(); got != 0 {
				t.Fatalf("failed to resolve: %d packets in flight after %d cycles\n%s", got, now, net.DumpState())
			}
			rec := net.Counts()
			if retry {
				if delivered+abandoned != offered {
					t.Fatalf("conservation broken: offered=%d delivered=%d abandoned=%d", offered, delivered, abandoned)
				}
				// Zero abandonment is only a sound demand when the retry
				// budget makes it near-certain. The fault rate applies per
				// flit per link traversal, so the worst-case (corner-to-
				// corner) per-attempt loss probability compounds over
				// maxHops*pktLen traversals; a packet abandons only after
				// RetryLimit+1 consecutive lost attempts.
				if cfg.RetryTimeout == 0 && abandoned != 0 {
					maxHops := 2 * (radix - 1)
					perAttempt := 1 - math.Pow(1-dataRate, float64(maxHops*pktLen))
					expected := float64(offered) * math.Pow(perAttempt, float64(cfg.RetryLimit+1))
					if expected < 0.01 {
						t.Fatalf("abandoned %d packets at %.1f%% loss with budget %d (expected %.4f)",
							abandoned, dataRate*100, cfg.RetryLimit, expected)
					}
				}
			} else {
				if delivered+lost != offered {
					t.Fatalf("conservation broken: offered=%d delivered=%d lost=%d", offered, delivered, lost)
				}
				if rec.Retried != 0 || abandoned != 0 {
					t.Fatalf("retry machinery active while disabled: %+v", rec)
				}
			}
			for pid, times := range resolvedSet {
				if times != 1 {
					t.Errorf("packet %d resolved %d times", pid, times)
				}
			}
			if rec.Offered != offered || rec.Delivered != delivered || rec.Abandoned != abandoned {
				t.Fatalf("Counts() disagrees with hooks: %+v vs offered=%d delivered=%d abandoned=%d", rec, offered, delivered, abandoned)
			}
		})
	}
}
