package frfc_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"

	"frfc"
)

// The simplest use: run the paper's storage-matched pair at half capacity on
// a small mesh and compare latencies. (Examples use fixed seeds and small
// meshes so their output is deterministic.)
func Example() {
	fr := frfc.FR6(frfc.FastControl, 5).WithMeshRadix(4).WithSampling(500, 800)
	vc := frfc.VC8(frfc.FastControl, 5).WithMeshRadix(4).WithSampling(500, 800)
	rf := frfc.Run(fr, 0.50)
	rv := frfc.Run(vc, 0.50)
	fmt.Printf("FR6 delivered %d/%d packets\n", rf.SampledDelivered, rf.SampleSize)
	fmt.Printf("VC8 delivered %d/%d packets\n", rv.SampledDelivered, rv.SampleSize)
	fmt.Printf("flit reservation faster: %v\n", rf.AvgLatency < rv.AvgLatency)
	// Output:
	// FR6 delivered 500/500 packets
	// VC8 delivered 500/500 packets
	// flit reservation faster: true
}

// Table 1's headline: the flit-reservation configuration with 6 buffers
// costs about the same storage as the virtual-channel configuration with 8.
func ExampleStorageTable() {
	for _, row := range frfc.StorageTable() {
		if row.Name == "FR6" || row.Name == "VC8" {
			fmt.Printf("%s: %d bits/node\n", row.Name, row.BitsPerNode)
		}
	}
	// Output:
	// VC8: 10452 bits/node
	// FR6: 10762 bits/node
}

// Table 2's bandwidth debit: flit reservation pays 5 extra bits per data
// flit for the arrival-time stamp — about 2% of a 256-bit flit.
func ExampleBandwidthTable() {
	rows, penalty := frfc.BandwidthTable()
	for _, r := range rows {
		fmt.Printf("%s: %.1f bits/flit\n", r.Name, r.BitsPerFlit)
	}
	fmt.Printf("penalty: %.2f%%\n", penalty*100)
	// Output:
	// VC: 2.2 bits/flit
	// FR: 7.2 bits/flit
	// penalty: 1.95%
}

// A configuration beyond the paper's presets is a preset with some fields
// changed — here a flit-reservation network with more buffers and a longer
// scheduling horizon, under transpose traffic.
func Example_custom() {
	spec := frfc.FR6(frfc.FastControl, 5)
	spec.Name = "my-network"
	spec.MeshRadix = 4
	spec.FR.DataBuffers = 8
	spec.FR.Horizon = 64
	pattern, err := frfc.ParsePattern("transpose")
	if err != nil {
		fmt.Println(err)
		return
	}
	spec.Pattern = pattern
	r := frfc.Run(spec.WithSampling(300, 600), 0.30)
	fmt.Printf("delivered %d/%d\n", r.SampledDelivered, r.SampleSize)
	// Output:
	// delivered 300/300
}

// Sweep produces the latency-versus-offered-traffic series behind the
// paper's figures; saturation shows up as the Saturated flag.
func ExampleSweep() {
	spec := frfc.VC8(frfc.FastControl, 5).WithMeshRadix(4).WithSampling(400, 600)
	for _, r := range frfc.Sweep(spec, []float64{0.2, 0.9}) {
		fmt.Printf("load %.0f%%: saturated=%v\n", r.Load*100, r.Saturated)
	}
	// Output:
	// load 20%: saturated=false
	// load 90%: saturated=true
}

// An Observer arms collectors on one run without changing its measurement;
// what they saw rides in Result.Observed, and cmd/frsim's flags write it out.
// Here the latency waterfall: seven stages that sum to each packet's latency.
func ExampleObserver() {
	spec := frfc.FR6(frfc.FastControl, 5).WithMeshRadix(4).WithSampling(300, 600)
	spec.Check = true
	obs := frfc.NewObserver(frfc.ObserverOptions{Waterfall: true})
	r := frfc.RunObserved(spec, 0.30, obs)
	wf := r.Observed.Waterfall
	fmt.Printf("same measurement as a bare run: %v\n", r.AvgLatency == frfc.Run(spec, 0.30).AvgLatency)
	fmt.Printf("stages sum to the latency of all %d packets: %v\n", wf.Packets,
		wf.Queue+wf.Reserve+wf.Arb+wf.Stall+wf.Sched+wf.Link+wf.Drain == wf.Total)
	// Output:
	// same measurement as a bare run: true
	// stages sum to the latency of all 300 packets: true
}

// RunJobs fans a campaign over a worker pool, the same results in job order at
// any worker count; a ResultPath caches them by content hash across runs.
func ExampleRunJobs() {
	dir, err := os.MkdirTemp("", "frfc-example")
	if err != nil {
		fmt.Println(err)
		return
	}
	defer os.RemoveAll(dir)
	spec := frfc.VC8(frfc.FastControl, 5).WithMeshRadix(4).WithSampling(200, 300)
	jobs := []frfc.Job{{Spec: spec, Load: 0.2}, {Spec: spec, Load: 0.4}}
	o := frfc.ParallelOptions{Workers: 2, ResultPath: filepath.Join(dir, "results.jsonl")}
	for pass := 1; pass <= 2; pass++ {
		results, err := frfc.RunJobs(context.Background(), jobs, o)
		if err != nil {
			fmt.Println(err)
			return
		}
		fmt.Printf("pass %d: served from the store: %v, %v\n", pass, results[0].Cached, results[1].Cached)
	}
	// Output:
	// pass 1: served from the store: false, false
	// pass 2: served from the store: true, true
}

// The resolved sweeps offer a fixed number of packets and run until the fate of
// each is known. FaultSweep loses data flits at random: detection alone leaves
// lost packets lost, the end-to-end retry layer delivers every one.
func ExampleFaultSweep() {
	pts, err := frfc.FaultSweep(frfc.FaultSweepOptions{ResolveOptions: frfc.ResolveOptions{Packets: 100}, Rates: []float64{0.02}})
	if err != nil {
		fmt.Println(err)
		return
	}
	for _, p := range pts {
		fmt.Printf("retry budget %d: every packet delivered: %v\n", p.Spec.FR.RetryLimit, p.DeliveredFraction() == 1)
	}
	// Output:
	// retry budget 0: every packet delivered: false
	// retry budget 8: every packet delivered: true
}
