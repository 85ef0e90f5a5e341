package experiment

import (
	"context"
	"fmt"

	"frfc/internal/stats"
)

// IntegrityPoint is one row of an integrity sweep: a flit-reservation network
// run under a given link bit-error rate, with or without the end-to-end
// payload check, until every offered packet's fate is resolved. The ledger's
// bit-error-model activity is what the row is about: flits delivered
// corrupted, corrupted flits the hop CRC caught, corrupted payload that
// escaped every hop CRC to its destination, phantom reservations installed by
// escaped-corrupt control flits, and orphaned parked flits the reclamation
// timeout freed.
type IntegrityPoint struct {
	BER      float64
	CrcBits  int
	E2ECheck bool
	Resolved
}

// EscapeRateCI is the 95% Wilson interval around the escape rate —
// corrupted-payload escapes per offered packet, the silent-corruption
// exposure. With the end-to-end check on, an escape is caught and retried, so
// exposure does not imply wrong data was accepted; with it off, every escape
// is accepted as-is. Escape counts are single digits out of a few hundred
// offered packets, so the interval — not the point estimate — is the honest
// statement of exposure; at zero observed escapes it still has positive width
// (the rule of three).
func (p IntegrityPoint) EscapeRateCI() (lo, hi float64) {
	return stats.WilsonCI95(p.CorruptEscapes, p.Offered)
}

// String renders the point as one sweep row.
func (p IntegrityPoint) String() string {
	e2e := "off"
	if p.E2ECheck {
		e2e = "on"
	}
	return fmt.Sprintf("ber=%-7.0e e2e=%-3s delivered=%6.2f%%  corrupted=%5d  crc=%5d  escapes=%4d  retried=%4d",
		p.BER, e2e, p.DeliveredFraction()*100, p.CorruptedFlits, p.CrcDetected, p.CorruptEscapes, p.Retried)
}

// IntegritySweepOptions parameterizes an integrity sweep (400 packets per row
// by default).
type IntegritySweepOptions struct {
	ResolveOptions
	// RetryLimit is the end-to-end retry budget (default 8). Corruption
	// recovery leans on it: detected-corrupt data takes the loss path, and
	// the end-to-end check turns escapes into retries.
	RetryLimit int
	// CrcBits is the modeled hop CRC width. The default is 4 — deliberately
	// weak (2^-4 ≈ 6% of corrupted flits slip each hop) so sweeps exercise
	// the escape machinery; production-strength CRCs make escapes
	// astronomically rare. Negative disables hop detection entirely.
	CrcBits int
	// BERs are the link bit-error rates swept; each runs once with the
	// end-to-end check on and once with it off. Nil selects the defaults
	// {0, 1e-4, 1e-3, 5e-3, 1e-2}.
	BERs []float64
}

func (o IntegritySweepOptions) withDefaults() IntegritySweepOptions {
	o.ResolveOptions = o.ResolveOptions.withDefaults(400, 0x1D7E9)
	if o.RetryLimit == 0 {
		o.RetryLimit = 8
	}
	if o.CrcBits == 0 {
		o.CrcBits = 4
	}
	if o.BERs == nil {
		o.BERs = []float64{0, 1e-4, 1e-3, 5e-3, 1e-2}
	}
	return o
}

// Cells enumerates the integrity sweep, which measures silent-corruption
// tolerance: each bit-error rate runs the FR6 network twice — end-to-end check
// on, then off — until every offered packet resolves, and reports delivered
// fraction alongside the corruption ledger. It is the experiment behind the
// integrity claim: with the check on, every escape is caught and retried so
// delivery stays total; with it off, the escape rate is exactly the silently
// accepted corruption.
func (o IntegritySweepOptions) Cells() []Cell[IntegrityPoint] {
	o = o.withDefaults()
	cells := make([]Cell[IntegrityPoint], 0, 2*len(o.BERs))
	for _, ber := range o.BERs {
		for _, e2e := range []bool{true, false} {
			s := o.spec()
			s.FR.BER, s.FR.CrcBits, s.FR.E2ECheck, s.FR.RetryLimit = ber, o.CrcBits, e2e, o.RetryLimit
			cells = append(cells, Cell[IntegrityPoint]{
				Name: fmt.Sprintf("integrity cell (ber=%g, e2e=%v)", ber, e2e),
				Run: func(ctx context.Context) (IntegrityPoint, error) {
					res, err := resolve(ctx, o.ResolveOptions, s, nil)
					if err != nil {
						return IntegrityPoint{}, err
					}
					return IntegrityPoint{BER: ber, CrcBits: o.CrcBits, E2ECheck: e2e, Resolved: res}, nil
				},
			})
		}
	}
	return cells
}
