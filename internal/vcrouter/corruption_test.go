package vcrouter

import (
	"reflect"
	"testing"

	"frfc/internal/noc"
	"frfc/internal/sim"
	"frfc/internal/topology"
)

func offerMany(net *Network, mesh topology.Mesh, rng *sim.RNG, packets int) sim.Cycle {
	now := sim.Cycle(0)
	for i := 0; i < packets; i++ {
		src := topology.NodeID(rng.Intn(mesh.N()))
		dst := topology.NodeID(rng.Intn(mesh.N() - 1))
		if dst >= src {
			dst++
		}
		net.Offer(&noc.Packet{ID: noc.PacketID(i), Src: int32(src), Dst: int32(dst), Len: 5, CreatedAt: now})
		for j := 0; j < 4; j++ {
			net.Tick(now)
			now++
		}
	}
	return now
}

// TestBitErrorsRepairedInPlace: credit-based wormhole flow control has no
// drop-and-recover path — a discarded flit would wedge its wormhole forever —
// so a detected corruption models a zero-cost link-level retransmit that
// repairs the flit in place. With the default 16-bit CRC essentially nothing
// slips, so every packet is delivered and no escape reaches a sink.
func TestBitErrorsRepairedInPlace(t *testing.T) {
	mesh := topology.NewMesh(4)
	rec, hooks := newRecorder()
	cfg := Config{NumVCs: 2, BufPerVC: 4, LinkLatency: 4, CreditLatency: 1, LocalLatency: 1, BER: 5e-3}
	net := New(mesh, cfg, 7, hooks)

	rng := sim.NewRNG(42)
	const packets = 300
	now := offerMany(net, mesh, rng, packets)
	for len(rec.delivered) < packets && now < 200000 {
		net.Tick(now)
		now++
	}
	if len(rec.delivered) != packets {
		t.Fatalf("delivered %d of %d packets under bit errors", len(rec.delivered), packets)
	}
	if got := net.InFlightPackets(); got != 0 {
		t.Errorf("InFlightPackets = %d after drain, want 0", got)
	}
	c := net.Counts()
	corrupted, repaired, escaped := c.CorruptedFlits, c.CrcDetected, c.CorruptEscapes
	if corrupted == 0 {
		t.Fatal("BER exercised nothing over ~1500 flits")
	}
	if repaired != corrupted || escaped != 0 {
		t.Fatalf("16-bit CRC should catch everything: corrupted=%d repaired=%d escaped=%d",
			corrupted, repaired, escaped)
	}
}

// TestBitErrorEscapesCounted: with hop detection disabled every corrupted
// flit rides to its sink as an escape — the baseline has no end-to-end
// recovery, which is exactly the comparison point against the FR network's
// retry story. Delivery itself is unaffected: corruption is not loss.
func TestBitErrorEscapesCounted(t *testing.T) {
	mesh := topology.NewMesh(4)
	rec, hooks := newRecorder()
	cfg := Config{NumVCs: 2, BufPerVC: 4, LinkLatency: 4, CreditLatency: 1, LocalLatency: 1, BER: 5e-3, CrcBits: -1}
	net := New(mesh, cfg, 7, hooks)

	rng := sim.NewRNG(42)
	const packets = 200
	now := offerMany(net, mesh, rng, packets)
	for len(rec.delivered) < packets && now < 200000 {
		net.Tick(now)
		now++
	}
	if len(rec.delivered) != packets {
		t.Fatalf("delivered %d of %d packets", len(rec.delivered), packets)
	}
	c := net.Counts()
	corrupted, repaired, escaped := c.CorruptedFlits, c.CrcDetected, c.CorruptEscapes
	if corrupted == 0 || escaped == 0 {
		t.Fatalf("disabled CRC produced no escapes: corrupted=%d escaped=%d", corrupted, escaped)
	}
	if repaired != 0 {
		t.Fatalf("disabled CRC still repaired %d flits", repaired)
	}
}

// TestZeroBERPreservesBaseline: arming the bit-error machinery with BER 0
// must not perturb the baseline simulation — the link RNG splits off the
// root only when BER > 0, so delivery times are bit-identical with the
// feature absent.
func TestZeroBERPreservesBaseline(t *testing.T) {
	run := func(cfg Config) map[noc.PacketID]sim.Cycle {
		mesh := topology.NewMesh(4)
		rec, hooks := newRecorder()
		net := New(mesh, cfg, 7, hooks)
		rng := sim.NewRNG(42)
		const packets = 100
		now := offerMany(net, mesh, rng, packets)
		for len(rec.delivered) < packets && now < 200000 {
			net.Tick(now)
			now++
		}
		return rec.delivered
	}
	base := Config{NumVCs: 2, BufPerVC: 4, LinkLatency: 4, CreditLatency: 1, LocalLatency: 1}
	armed := base
	armed.BER = 0
	armed.CrcBits = 16
	if a, b := run(base), run(armed); !reflect.DeepEqual(a, b) {
		t.Fatal("BER=0 with CrcBits set changed baseline delivery times")
	}
}

// TestVCConfigRejectsBadBER: out-of-range rates and CRC widths panic at
// construction.
func TestVCConfigRejectsBadBER(t *testing.T) {
	base := Config{NumVCs: 2, BufPerVC: 4, LinkLatency: 4, CreditLatency: 1, LocalLatency: 1}
	mesh := topology.NewMesh(3)
	for name, mutate := range map[string]func(*Config){
		"negative ber": func(c *Config) { c.BER = -0.1 },
		"ber one":      func(c *Config) { c.BER = 1.0 },
		"huge crc":     func(c *Config) { c.CrcBits = 63 },
	} {
		cfg := base
		mutate(&cfg)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			New(mesh, cfg, 1, &noc.Hooks{})
		}()
	}
}
