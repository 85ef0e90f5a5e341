package experiment

import "fmt"

// FaultSweepOptions parameterizes a fault sweep (400 packets per row by
// default).
type FaultSweepOptions struct {
	ResolveOptions
	// RetryLimit is the budget of the retry arm (default 8).
	RetryLimit int
	// Rates are the data-flit loss probabilities swept (default 0–20%).
	Rates []float64
}

func (o FaultSweepOptions) withDefaults() FaultSweepOptions {
	o.ResolveOptions = o.ResolveOptions.withDefaults(400, 0xFA017)
	if o.RetryLimit == 0 {
		o.RetryLimit = 8
	}
	if o.Rates == nil {
		o.Rates = []float64{0, 0.01, 0.02, 0.05, 0.10, 0.20}
	}
	return o
}

// Rows enumerates the fault sweep, which measures end-to-end delivery under
// data-flit loss: each loss rate runs the FR6 network twice — detection only
// (RetryLimit 0, where a lost packet stays lost), and with the end-to-end
// retry layer — resolving every offered packet. It is the experiment behind
// the recovery layer's reliability claim: with retries, the delivered
// fraction stays at 100% through percent-level loss rates, at a latency cost
// the AvgLatency column exposes.
func (o FaultSweepOptions) Rows() []Spec {
	o = o.withDefaults()
	rows := make([]Spec, 0, 2*len(o.Rates))
	for _, rate := range o.Rates {
		for _, retryLimit := range []int{0, o.RetryLimit} {
			s := o.spec()
			s.Name = fmt.Sprintf("loss=%g retry=%d", rate, retryLimit)
			s.FR.DataFaultRate, s.FR.RetryLimit = rate, retryLimit
			rows = append(rows, s)
		}
	}
	return rows
}
