package frfc

import (
	"fmt"
	"testing"

	"frfc/internal/experiment"
)

// TestFRResultsPinned holds two flit-reservation runs to the Results the
// simulator produced before its components learned to sleep: the sparse
// 16×16 point, where most routers are dormant most cycles, and the loaded
// 8×8 point, where most are awake and only silent ports are skipped. The
// observed Result's sidecar carries the tick and active-tick totals, the router's
// phase counters and the waterfall stages, so a dormant tick that forgot its
// profile record, a skipped random draw or a late table slide that revealed
// a different cell all move a pinned digit. The third run gives each router
// 13 control VCs on five ports, 65 channels, so its candidate set spans two
// words of the router's channel vectors where FR6's 10 fit in one.
func TestFRResultsPinned(t *testing.T) {
	for _, tc := range []struct {
		name           string
		spec           Spec
		radix          int
		load           float64
		sample, warmup int
		want           string
	}{
		{"16x16-load0.10", FR6(FastControl, 5), 16, 0.10, 1500, 800, pinnedSparse},
		{"8x8-load0.50", FR6(FastControl, 5), 8, 0.50, 2000, 1000, pinnedMid},
		{"fr20-v13-4x4-load0.30", experiment.FRSpec("FR20-v13", experiment.FastControl, 20, 13, 1, 5), 4, 0.30, 2000, 1000, pinnedTwoWords},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := tc.spec.WithMeshRadix(tc.radix).WithSampling(tc.sample, tc.warmup).WithSeed(1)
			obs := NewObserver(ObserverOptions{Profile: true, Waterfall: true})
			got := renderPinned(RunObserved(spec, tc.load, obs))
			if got != tc.want {
				t.Errorf("Result moved:\n got %s\nwant %s", got, tc.want)
			}
		})
	}
}

// renderPinned prints an observed Result field by field: the measurement, then
// the sidecar's two summaries by value, so the string holds numbers and no
// address. The conversion sheds Result's String method, which %+v would
// otherwise call.
func renderPinned(r Result) string {
	type fields Result
	o := *r.Observed
	r.Observed = nil
	return fmt.Sprintf("%+v Activity:%+v Waterfall:%+v", fields(r), *o.Activity, *o.Waterfall)
}

const (
	pinnedSparse   = `{Spec:FR6 Load:0.1 EffectiveLoad:0.098046875 AvgLatency:50.91733333333337 AvgQueueDelay:0 CI95:1.048701695347935 BatchCI95:1.2919179082735894 Batches:30 Lag1Autocorr:0.011363840226416724 CISuspect:false MinLatency:12 MaxLatency:117 P50:49 P95:88 P99:104 AcceptedLoad:0.10025009904912836 Saturated:false WarmupUnstable:false SampledDelivered:1500 SampleSize:1500 Cycles:2062 PoolFullFraction:0 EagerTransfers:0 EagerResidencies:0 DroppedFlits:0 LostPackets:0 RetriedPackets:0 AbandonedPackets:0 DeliveredAfterRetry:0 CtrlCorrupted:0 AvgRetryLatency:0 UnreachablePackets:0 DeliveredFraction:1 CorruptedFlits:0 CrcDetected:0 CorruptEscapes:0 PhantomReservations:0 ReclaimedSlots:0 Observed:<nil>} Activity:{Ticks:1583616 ActiveTicks:306069 IdleFraction:0.8067277673375364 SchedWork:158407 ArbWork:310165 SwitchWork:164856 CreditWork:276493} Waterfall:{Packets:1500 Total:76376 Queue:0 Reserve:1500 Arb:0 Stall:0 Sched:2009 Link:66144 Drain:6723}`
	pinnedMid      = `{Spec:FR6 Load:0.5 EffectiveLoad:0.490234375 AvgLatency:34.758999999999965 AvgQueueDelay:0 CI95:0.49312255813729755 BatchCI95:0.7163303676556722 Batches:30 Lag1Autocorr:0.018112039566722107 CISuspect:false MinLatency:12 MaxLatency:78 P50:35 P95:53 P99:60 AcceptedLoad:0.501406023222061 Saturated:false WarmupUnstable:false SampledDelivered:2000 SampleSize:2000 Cycles:1689 PoolFullFraction:0.00725689404934688 EagerTransfers:0 EagerResidencies:0 DroppedFlits:0 LostPackets:0 RetriedPackets:0 AbandonedPackets:0 DeliveredAfterRetry:0 CtrlCorrupted:0 AvgRetryLatency:0 UnreachablePackets:0 DeliveredFraction:1 CorruptedFlits:0 CrcDetected:0 CorruptEscapes:0 PhantomReservations:0 ReclaimedSlots:0 Observed:<nil>} Activity:{Ticks:324288 ActiveTicks:175421 IdleFraction:0.4590579978290902 SchedWork:173968 ArbWork:347724 SwitchWork:213216 CreditWork:285294} Waterfall:{Packets:2000 Total:69518 Queue:0 Reserve:2013 Arb:0 Stall:0 Sched:8015 Link:46576 Drain:12914}`
	pinnedTwoWords = `{Spec:FR20-v13 Load:0.3 EffectiveLoad:0.294140625 AvgLatency:20.605499999999953 AvgQueueDelay:0 CI95:0.23021727348812526 BatchCI95:0.25014921906289395 Batches:30 Lag1Autocorr:-0.022698430747873345 CISuspect:false MinLatency:12 MaxLatency:38 P50:20 P95:29 P99:33 AcceptedLoad:0.2999290108849976 Saturated:false WarmupUnstable:false SampledDelivered:2000 SampleSize:2000 Cycles:3113 PoolFullFraction:0 EagerTransfers:0 EagerResidencies:0 DroppedFlits:0 LostPackets:0 RetriedPackets:0 AbandonedPackets:0 DeliveredAfterRetry:0 CtrlCorrupted:0 AvgRetryLatency:0 UnreachablePackets:0 DeliveredFraction:1 CorruptedFlits:0 CrcDetected:0 CorruptEscapes:0 PhantomReservations:0 ReclaimedSlots:0 Observed:<nil>} Activity:{Ticks:149424 ActiveTicks:85334 IdleFraction:0.4289136952564514 SchedWork:54810 ArbWork:109860 SwitchWork:74103 CreditWork:79413} Waterfall:{Packets:2000 Total:41211 Queue:0 Reserve:2000 Arb:0 Stall:0 Sched:3322 Link:25176 Drain:10713}`
)

// TestVCLineageResultsPinned holds the fabrics that ride internal/vcrouter
// and sim.Pipe — virtual channels, pooled virtual channels, interleaved
// sources, wormhole, and the packet-switched pair that own their routers but
// share the wire — to the Results the scanning, slice-shifting data path
// produced. Every arbitration draw, every waterfall mark on a blocked head
// and every component tick's work flag is in the string; the bit-error point
// adds the link stream, whose draw order rides Pipe.Send.
func TestVCLineageResultsPinned(t *testing.T) {
	pooled := VC16(FastControl, 5)
	pooled.Name = "VC16-pooled"
	pooled.VC.SharedPool = true
	interleaved := VC8(FastControl, 5)
	interleaved.Name = "VC8-interleave"
	interleaved.VC.SourceInterleave = true
	ber := VC8(FastControl, 5)
	ber.VC.BER, ber.VC.CrcBits = 2e-3, 3
	for _, tc := range []struct {
		name string
		spec Spec
		load float64
		want string
	}{
		{"vc8-load0.50", VC8(FastControl, 5), 0.50, pinnedVC8},
		{"vc16-pooled-load0.55", pooled, 0.55, pinnedVC16Pooled},
		{"vc8-interleave-load0.45", interleaved, 0.45, pinnedVC8Interleave},
		{"wormhole-load0.30", WormholeSpec(FastControl, 8, 5), 0.30, pinnedWormhole},
		{"saf-load0.20", StoreAndForwardSpec(FastControl, 2, 5), 0.20, pinnedSAF},
		{"vct-load0.30", CutThroughSpec(FastControl, 2, 5), 0.30, pinnedVCT},
		{"vc8-ber-load0.40", ber, 0.40, pinnedVC8BER},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := tc.spec.WithMeshRadix(8).WithSampling(1500, 800).WithSeed(1)
			obs := NewObserver(ObserverOptions{Profile: true, Waterfall: true})
			got := renderPinned(RunObserved(spec, tc.load, obs))
			if got != tc.want {
				t.Errorf("Result moved:\n got %s\nwant %s", got, tc.want)
			}
		})
	}
}

const (
	pinnedVC8           = `{Spec:VC8 Load:0.5 EffectiveLoad:0.5 AvgLatency:41.98599999999995 AvgQueueDelay:0.04333333333333327 CI95:0.8264575295243242 BatchCI95:1.3732638149921041 Batches:30 Lag1Autocorr:0.04823296250820053 CISuspect:false MinLatency:14 MaxLatency:103 P50:40 P95:71 P99:83 AcceptedLoad:0.5012019230769231 Saturated:false WarmupUnstable:false SampledDelivered:1500 SampleSize:1500 Cycles:1551 PoolFullFraction:0 EagerTransfers:0 EagerResidencies:0 DroppedFlits:0 LostPackets:0 RetriedPackets:0 AbandonedPackets:0 DeliveredAfterRetry:0 CtrlCorrupted:0 AvgRetryLatency:0 UnreachablePackets:0 DeliveredFraction:0 CorruptedFlits:0 CrcDetected:0 CorruptEscapes:0 PhantomReservations:0 ReclaimedSlots:0 Observed:<nil>} Activity:{Ticks:297792 ActiveTicks:160757 IdleFraction:0.4601701859015689 SchedWork:0 ArbWork:0 SwitchWork:0 CreditWork:0} Waterfall:{Packets:1500 Total:62979 Queue:65 Reserve:9 Arb:9065 Stall:7215 Sched:0 Link:34960 Drain:11665}`
	pinnedVC16Pooled    = `{Spec:VC16-pooled Load:0.55 EffectiveLoad:0.55 AvgLatency:43.16666666666665 AvgQueueDelay:0 CI95:0.8917143792679172 BatchCI95:1.7175115639981677 Batches:30 Lag1Autocorr:0.04456100129468746 CISuspect:false MinLatency:12 MaxLatency:108 P50:41 P95:75 P99:85 AcceptedLoad:0.5491516966067864 Saturated:false WarmupUnstable:false SampledDelivered:1500 SampleSize:1500 Cycles:1301 PoolFullFraction:0 EagerTransfers:0 EagerResidencies:0 DroppedFlits:0 LostPackets:0 RetriedPackets:0 AbandonedPackets:0 DeliveredAfterRetry:0 CtrlCorrupted:0 AvgRetryLatency:0 UnreachablePackets:0 DeliveredFraction:0 CorruptedFlits:0 CrcDetected:0 CorruptEscapes:0 PhantomReservations:0 ReclaimedSlots:0 Observed:<nil>} Activity:{Ticks:249792 ActiveTicks:141459 IdleFraction:0.4336928324365873 SchedWork:0 ArbWork:0 SwitchWork:0 CreditWork:0} Waterfall:{Packets:1500 Total:64750 Queue:0 Reserve:0 Arb:12088 Stall:2208 Sched:0 Link:35188 Drain:15266}`
	pinnedVC8Interleave = `{Spec:VC8-interleave Load:0.45 EffectiveLoad:0.45 AvgLatency:40.32666666666678 AvgQueueDelay:0 CI95:0.7625595007988186 BatchCI95:1.384768487155581 Batches:30 Lag1Autocorr:0.08756665391515966 CISuspect:true MinLatency:14 MaxLatency:99 P50:39 P95:67 P99:79 AcceptedLoad:0.44882478632478634 Saturated:false WarmupUnstable:false SampledDelivered:1500 SampleSize:1500 Cycles:1385 PoolFullFraction:0 EagerTransfers:0 EagerResidencies:0 DroppedFlits:0 LostPackets:0 RetriedPackets:0 AbandonedPackets:0 DeliveredAfterRetry:0 CtrlCorrupted:0 AvgRetryLatency:0 UnreachablePackets:0 DeliveredFraction:0 CorruptedFlits:0 CrcDetected:0 CorruptEscapes:0 PhantomReservations:0 ReclaimedSlots:0 Observed:<nil>} Activity:{Ticks:265920 ActiveTicks:136476 IdleFraction:0.4867779783393502 SchedWork:0 ArbWork:0 SwitchWork:0 CreditWork:0} Waterfall:{Packets:1500 Total:60490 Queue:0 Reserve:0 Arb:9374 Stall:4624 Sched:0 Link:35032 Drain:11460}`
	pinnedWormhole      = `{Spec:WH8 Load:0.3 EffectiveLoad:0.3 AvgLatency:35.35599999999999 AvgQueueDelay:0 CI95:0.6995378481620304 BatchCI95:1.092319161638557 Batches:30 Lag1Autocorr:0.0545047515274563 CISuspect:true MinLatency:12 MaxLatency:92 P50:34 P95:62 P99:72 AcceptedLoad:0.3006886848341232 Saturated:false WarmupUnstable:false SampledDelivered:1500 SampleSize:1500 Cycles:1644 PoolFullFraction:0 EagerTransfers:0 EagerResidencies:0 DroppedFlits:0 LostPackets:0 RetriedPackets:0 AbandonedPackets:0 DeliveredAfterRetry:0 CtrlCorrupted:0 AvgRetryLatency:0 UnreachablePackets:0 DeliveredFraction:0 CorruptedFlits:0 CrcDetected:0 CorruptEscapes:0 PhantomReservations:0 ReclaimedSlots:0 Observed:<nil>} Activity:{Ticks:315648 ActiveTicks:133038 IdleFraction:0.5785241788321167 SchedWork:0 ArbWork:0 SwitchWork:0 CreditWork:0} Waterfall:{Packets:1500 Total:53034 Queue:0 Reserve:0 Arb:6936 Stall:5518 Sched:0 Link:34580 Drain:6000}`
	pinnedSAF           = `{Spec:SAF2 Load:0.2 EffectiveLoad:0.2 AvgLatency:60.21199999999996 AvgQueueDelay:0 CI95:1.2193637621628952 BatchCI95:1.475415572235634 Batches:30 Lag1Autocorr:0.07064407921331034 CISuspect:true MinLatency:20 MaxLatency:143 P50:56 P95:103 P99:124 AcceptedLoad:0.20047032583397983 Saturated:false WarmupUnstable:false SampledDelivered:1500 SampleSize:1500 Cycles:2089 PoolFullFraction:0 EagerTransfers:0 EagerResidencies:0 DroppedFlits:0 LostPackets:0 RetriedPackets:0 AbandonedPackets:0 DeliveredAfterRetry:0 CtrlCorrupted:0 AvgRetryLatency:0 UnreachablePackets:0 DeliveredFraction:0 CorruptedFlits:0 CrcDetected:0 CorruptEscapes:0 PhantomReservations:0 ReclaimedSlots:0 Observed:<nil>} Activity:{Ticks:0 ActiveTicks:0 IdleFraction:0 SchedWork:0 ArbWork:0 SwitchWork:0 CreditWork:0} Waterfall:{Packets:1500 Total:90318 Queue:0 Reserve:0 Arb:9531 Stall:40171 Sched:0 Link:34616 Drain:6000}`
	pinnedVCT           = `{Spec:VCT2 Load:0.3 EffectiveLoad:0.3 AvgLatency:35.16266666666668 AvgQueueDelay:0 CI95:0.6875288128548803 BatchCI95:1.0787001779465506 Batches:30 Lag1Autocorr:0.029961697827991397 CISuspect:false MinLatency:12 MaxLatency:84 P50:34 P95:60 P99:72 AcceptedLoad:0.30061101295641934 Saturated:false WarmupUnstable:false SampledDelivered:1500 SampleSize:1500 Cycles:1649 PoolFullFraction:0 EagerTransfers:0 EagerResidencies:0 DroppedFlits:0 LostPackets:0 RetriedPackets:0 AbandonedPackets:0 DeliveredAfterRetry:0 CtrlCorrupted:0 AvgRetryLatency:0 UnreachablePackets:0 DeliveredFraction:0 CorruptedFlits:0 CrcDetected:0 CorruptEscapes:0 PhantomReservations:0 ReclaimedSlots:0 Observed:<nil>} Activity:{Ticks:0 ActiveTicks:0 IdleFraction:0 SchedWork:0 ArbWork:0 SwitchWork:0 CreditWork:0} Waterfall:{Packets:1500 Total:52744 Queue:0 Reserve:0 Arb:9563 Stall:2601 Sched:0 Link:34580 Drain:6000}`
	pinnedVC8BER        = `{Spec:VC8 Load:0.4 EffectiveLoad:0.4 AvgLatency:38.8940000000001 AvgQueueDelay:0 CI95:0.722531122130857 BatchCI95:1.1523905838120267 Batches:30 Lag1Autocorr:0.054274543097928715 CISuspect:true MinLatency:14 MaxLatency:89 P50:38 P95:65 P99:76 AcceptedLoad:0.3998546511627907 Saturated:false WarmupUnstable:false SampledDelivered:1500 SampleSize:1500 Cycles:1445 PoolFullFraction:0 EagerTransfers:0 EagerResidencies:0 DroppedFlits:0 LostPackets:0 RetriedPackets:0 AbandonedPackets:0 DeliveredAfterRetry:0 CtrlCorrupted:0 AvgRetryLatency:0 UnreachablePackets:0 DeliveredFraction:0 CorruptedFlits:199 CrcDetected:188 CorruptEscapes:11 PhantomReservations:0 ReclaimedSlots:0 Observed:<nil>} Activity:{Ticks:277440 ActiveTicks:134588 IdleFraction:0.5148933102652826 SchedWork:0 ArbWork:0 SwitchWork:0 CreditWork:0} Waterfall:{Packets:1500 Total:58341 Queue:0 Reserve:0 Arb:9451 Stall:3075 Sched:0 Link:34700 Drain:11115}`
)
