package experiment

import (
	"encoding/json"
	"testing"

	"frfc/internal/core"
)

// TestLeadsOwnershipPinned pins whole Results of runs that stress the
// ControlFlit.Leads ownership rule (noc/flit.go): wide control flits whose
// lead lists are rewritten in place hop by hop, a LinkDown scenario whose
// re-routed streams compact dead leads out of the list, and bit errors whose
// discarded control flits return lead lists mid-stream. The strings were
// recorded from the commit before the in-place rewrite (per-hop copies), so
// any aliasing between a forwarded flit and the router it left shows up as a
// changed digit. Two things have moved since: EffectiveLoad, debited by each
// spec's own Table 2 penalty (wide control flits carry fewer VC tags), where
// it used to carry FR6's; and d2-ber, whose discarded streams now release
// their downstream control VC (Router.endStream) instead of holding it until
// another head reaches the channel.
func TestLeadsOwnershipPinned(t *testing.T) {
	wide := func(allOrNothing bool) Spec {
		s := FR6(FastControl, 8).Scaled(400, 300)
		s.FR.LeadsPerCtrl = 4
		s.FR.AllOrNothing = allOrNothing
		s.Check = true
		return s
	}
	// One control buffer per VC on a one-flit-per-cycle control channel keeps
	// scheduled heads waiting for a credit, so the four links that die catch
	// streams whose leads are already committed to the dead outputs: the
	// re-routed flits forward with those leads compacted out (four of them in
	// this run — the only scenario in the suite that reaches that branch).
	linkDown := FR6(FastControl, 8).Scaled(300, 300)
	linkDown.FR.LeadsPerCtrl = 2
	linkDown.FR.CtrlBufPerVC = 1
	linkDown.FR.CtrlFlitsPerCycle = 1
	linkDown.FR.RetryLimit = 8
	linkDown.Check = true
	faults, err := core.ParseScenario("down 27-28 @334; down 35-36 @334; down 27-35 @335; down 20-28 @335")
	if err != nil {
		t.Fatal(err)
	}
	linkDown.Faults = faults

	ber := FR6(FastControl, 5).Scaled(400, 300)
	ber.FR.LeadsPerCtrl = 2
	ber.FR.BER = 2e-3
	ber.FR.CrcBits = 4
	ber.FR.RetryLimit = 6
	ber.FR.E2ECheck = true
	ber.Check = true

	cases := []struct {
		name string
		spec Spec
		load float64
		want string
	}{
		{"d4-per-flit", wide(false), 0.40, pinD4PerFlit},
		{"d4-all-or-nothing", wide(true), 0.40, pinD4AllOrNothing},
		{"d2-link-down", linkDown, 0.40, pinD2LinkDown},
		{"d2-ber", ber, 0.35, pinD2BER},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			b, err := json.Marshal(Run(c.spec, c.load))
			if err != nil {
				t.Fatal(err)
			}
			if got := string(b); got != c.want {
				t.Fatalf("Result changed:\n got: %s\nwant: %s", got, c.want)
			}
		})
	}
}

const (
	pinD4PerFlit      = `{"Spec":"FR6","Load":0.4,"EffectiveLoad":0.39321289062500003,"AvgLatency":37.92250000000001,"AvgQueueDelay":0,"CI95":1.1540229844316323,"BatchCI95":1.3414659109268765,"Batches":30,"Lag1Autocorr":0.04346986192357395,"CISuspect":false,"MinLatency":15,"MaxLatency":66,"P50":38,"P95":57,"P99":63,"AcceptedLoad":0.4002016129032258,"Saturated":false,"WarmupUnstable":false,"SampledDelivered":400,"SampleSize":400,"Cycles":610,"PoolFullFraction":0,"EagerTransfers":0,"EagerResidencies":0,"DroppedFlits":0,"LostPackets":0,"RetriedPackets":0,"AbandonedPackets":0,"DeliveredAfterRetry":0,"CtrlCorrupted":0,"AvgRetryLatency":0,"UnreachablePackets":0,"DeliveredFraction":1,"CorruptedFlits":0,"CrcDetected":0,"CorruptEscapes":0,"PhantomReservations":0,"ReclaimedSlots":0}`
	pinD4AllOrNothing = `{"Spec":"FR6","Load":0.4,"EffectiveLoad":0.39321289062500003,"AvgLatency":37.91499999999999,"AvgQueueDelay":0,"CI95":1.1395035154638118,"BatchCI95":1.2898146578044554,"Batches":30,"Lag1Autocorr":0.002921354224692479,"CISuspect":false,"MinLatency":15,"MaxLatency":67,"P50":38,"P95":57,"P99":63,"AcceptedLoad":0.40141129032258066,"Saturated":false,"WarmupUnstable":false,"SampledDelivered":400,"SampleSize":400,"Cycles":610,"PoolFullFraction":0,"EagerTransfers":0,"EagerResidencies":0,"DroppedFlits":0,"LostPackets":0,"RetriedPackets":0,"AbandonedPackets":0,"DeliveredAfterRetry":0,"CtrlCorrupted":0,"AvgRetryLatency":0,"UnreachablePackets":0,"DeliveredFraction":1,"CorruptedFlits":0,"CrcDetected":0,"CorruptEscapes":0,"PhantomReservations":0,"ReclaimedSlots":0}`
	pinD2LinkDown     = `{"Spec":"FR6","Load":0.4,"EffectiveLoad":0.39287109375,"AvgLatency":1647.1891891891894,"AvgQueueDelay":1461.7567567567576,"CI95":169.412245723572,"BatchCI95":410.52208960802676,"Batches":30,"Lag1Autocorr":0.9750739822278611,"CISuspect":true,"MinLatency":32,"MaxLatency":4551,"P50":1370,"P95":3491,"P99":4511,"AcceptedLoad":0.12391896220371557,"Saturated":true,"WarmupUnstable":true,"SampledDelivered":185,"SampleSize":300,"Cycles":5883,"PoolFullFraction":0,"EagerTransfers":0,"EagerResidencies":0,"DroppedFlits":34,"LostPackets":7,"RetriedPackets":17,"AbandonedPackets":0,"DeliveredAfterRetry":15,"CtrlCorrupted":0,"AvgRetryLatency":2772,"UnreachablePackets":0,"DeliveredFraction":1,"CorruptedFlits":0,"CrcDetected":0,"CorruptEscapes":0,"PhantomReservations":0,"ReclaimedSlots":0}`
	pinD2BER          = `{"Spec":"FR6","Load":0.35,"EffectiveLoad":0.3437109375,"AvgLatency":69.395,"AvgQueueDelay":35.985,"CI95":17.62006233210792,"BatchCI95":11.428154701267744,"Batches":30,"Lag1Autocorr":0.9020021235818869,"CISuspect":true,"MinLatency":12,"MaxLatency":1323,"P50":34,"P95":160,"P99":1122,"AcceptedLoad":0.36133740665308894,"Saturated":false,"WarmupUnstable":false,"SampledDelivered":400,"SampleSize":400,"Cycles":1773,"PoolFullFraction":0,"EagerTransfers":0,"EagerResidencies":0,"DroppedFlits":562,"LostPackets":177,"RetriedPackets":213,"AbandonedPackets":0,"DeliveredAfterRetry":189,"CtrlCorrupted":0,"AvgRetryLatency":462.82352941176464,"UnreachablePackets":0,"DeliveredFraction":1,"CorruptedFlits":310,"CrcDetected":305,"CorruptEscapes":1,"PhantomReservations":15,"ReclaimedSlots":11}`
)
