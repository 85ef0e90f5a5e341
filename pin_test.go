package frfc

import (
	"fmt"
	"testing"
)

// TestFRResultsPinned holds two flit-reservation runs to the Results the
// simulator produced before its components learned to sleep: the sparse
// 16×16 point, where most routers are dormant most cycles, and the loaded
// 8×8 point, where most are awake and only silent ports are skipped. The
// observed Result carries the tick and active-tick totals, the router's
// phase counters and the waterfall stages, so a dormant tick that forgot its
// profile record, a skipped random draw or a late table slide that revealed
// a different cell all move a pinned digit.
func TestFRResultsPinned(t *testing.T) {
	for _, tc := range []struct {
		name           string
		radix          int
		load           float64
		sample, warmup int
		want           string
	}{
		{"16x16-load0.10", 16, 0.10, 1500, 800, pinnedSparse},
		{"8x8-load0.50", 8, 0.50, 2000, 1000, pinnedMid},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := FR6(FastControl, 5).WithMeshRadix(tc.radix).WithSampling(tc.sample, tc.warmup).WithSeed(1)
			obs := NewObserver(ObserverOptions{Profile: true, Waterfall: true})
			got := fmt.Sprintf("%+v", RunObserved(spec, tc.load, obs))
			if got != tc.want {
				t.Errorf("Result moved:\n got %s\nwant %s", got, tc.want)
			}
		})
	}
}

const (
	pinnedSparse = `{Spec:FR6 Load:0.1 EffectiveLoad:0.098046875 AvgLatency:50.91733333333337 AvgQueueDelay:0 CI95:1.048701695347935 BatchCI95:1.2919179082735894 Batches:30 Lag1Autocorr:0.011363840226416724 CISuspect:false MinLatency:12 MaxLatency:117 P50:49 P95:88 P99:104 AcceptedLoad:0.10025009904912836 Saturated:false WarmupUnstable:false SampledDelivered:1500 SampleSize:1500 Cycles:2062 PoolFullFraction:0 EagerTransfers:0 EagerResidencies:0 DroppedFlits:0 LostPackets:0 RetriedPackets:0 AbandonedPackets:0 DeliveredAfterRetry:0 CtrlCorrupted:0 AvgRetryLatency:0 UnreachablePackets:0 DeliveredFraction:1 CorruptedFlits:0 CrcDetected:0 CorruptEscapes:0 PhantomReservations:0 ReclaimedSlots:0 ProfTicks:1583616 ProfActiveTicks:306069 ProfIdleFraction:0.8067277673375364 ProfSchedWork:158407 ProfArbWork:310165 ProfSwitchWork:164856 ProfCreditWork:276493 WaterfallPackets:1500 WaterfallTotal:76376 WaterfallQueue:0 WaterfallReserve:1500 WaterfallArb:0 WaterfallStall:0 WaterfallSched:2009 WaterfallLink:66144 WaterfallDrain:6723}`
	pinnedMid    = `{Spec:FR6 Load:0.5 EffectiveLoad:0.490234375 AvgLatency:34.758999999999965 AvgQueueDelay:0 CI95:0.49312255813729755 BatchCI95:0.7163303676556722 Batches:30 Lag1Autocorr:0.018112039566722107 CISuspect:false MinLatency:12 MaxLatency:78 P50:35 P95:53 P99:60 AcceptedLoad:0.501406023222061 Saturated:false WarmupUnstable:false SampledDelivered:2000 SampleSize:2000 Cycles:1689 PoolFullFraction:0.00725689404934688 EagerTransfers:0 EagerResidencies:0 DroppedFlits:0 LostPackets:0 RetriedPackets:0 AbandonedPackets:0 DeliveredAfterRetry:0 CtrlCorrupted:0 AvgRetryLatency:0 UnreachablePackets:0 DeliveredFraction:1 CorruptedFlits:0 CrcDetected:0 CorruptEscapes:0 PhantomReservations:0 ReclaimedSlots:0 ProfTicks:324288 ProfActiveTicks:175421 ProfIdleFraction:0.4590579978290902 ProfSchedWork:173968 ProfArbWork:347724 ProfSwitchWork:213216 ProfCreditWork:285294 WaterfallPackets:2000 WaterfallTotal:69518 WaterfallQueue:0 WaterfallReserve:2013 WaterfallArb:0 WaterfallStall:0 WaterfallSched:8015 WaterfallLink:46576 WaterfallDrain:12914}`
)
