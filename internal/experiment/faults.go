package experiment

import (
	"context"
	"fmt"
)

// FaultPoint is one row of a fault sweep: a flit-reservation network run at
// one data-flit loss rate with one retry policy, until every offered packet's
// fate was resolved. Of the ledger, LostDetected counts loss events at
// destinations (per attempt under retry).
type FaultPoint struct {
	// DataFaultRate is the per-flit per-link loss probability of the row.
	DataFaultRate float64
	// RetryLimit is the retry budget the row ran with; 0 is the
	// detection-only arm, where a lost packet stays lost.
	RetryLimit int
	Resolved
}

// String renders the point as one sweep row.
func (p FaultPoint) String() string {
	policy := "detect-only"
	if p.RetryLimit > 0 {
		policy = fmt.Sprintf("retry<=%d", p.RetryLimit)
	}
	return fmt.Sprintf("loss=%5.1f%%  %-11s delivered=%5.1f%%  retried=%4d  abandoned=%3d  latency=%8.2f",
		p.DataFaultRate*100, policy, p.DeliveredFraction()*100, p.Retried, p.Abandoned, p.AvgLatency)
}

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

// Cells enumerates the fault sweep, which measures end-to-end delivery under
// data-flit loss: each loss rate runs the FR6 network twice — detection only,
// and with the end-to-end retry layer — resolving every offered packet. It is
// the experiment behind the recovery layer's reliability claim: with retries,
// the delivered fraction stays at 100% through percent-level loss rates, at a
// latency cost the AvgLatency column exposes.
func (o FaultSweepOptions) Cells() []Cell[FaultPoint] {
	o = o.withDefaults()
	cells := make([]Cell[FaultPoint], 0, 2*len(o.Rates))
	for _, rate := range o.Rates {
		for _, retryLimit := range []int{0, o.RetryLimit} {
			s := o.spec()
			s.FR.DataFaultRate, s.FR.RetryLimit = rate, retryLimit
			cells = append(cells, Cell[FaultPoint]{
				Name: fmt.Sprintf("fault cell (rate=%g, retry=%d)", rate, retryLimit),
				Run: func(ctx context.Context) (FaultPoint, error) {
					res, err := resolve(ctx, o.ResolveOptions, s, nil)
					if err != nil {
						return FaultPoint{}, err
					}
					return FaultPoint{DataFaultRate: rate, RetryLimit: retryLimit, Resolved: res}, nil
				},
			})
		}
	}
	return cells
}
