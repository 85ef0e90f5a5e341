package experiment

import "fmt"

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

// Rows enumerates the integrity sweep, which measures silent-corruption
// tolerance: each bit-error rate runs the FR6 network twice — end-to-end check
// on, then off — until every offered packet resolves. The ledger's
// bit-error-model activity is what a row is about: flits delivered corrupted,
// corrupted flits the hop CRC caught, corrupted payload that escaped every hop
// CRC to its destination, phantom reservations installed by escaped-corrupt
// control flits, and orphaned parked flits the reclamation timeout freed. It
// is the experiment behind the integrity claim: with the check on, every
// escape is caught and retried so delivery stays total; with it off, the
// escapes are exactly the silently accepted corruption.
func (o IntegritySweepOptions) Rows() []Spec {
	o = o.withDefaults()
	rows := make([]Spec, 0, 2*len(o.BERs))
	for _, ber := range o.BERs {
		for _, e2e := range []bool{true, false} {
			s := o.spec()
			s.Name = fmt.Sprintf("ber=%g e2e=%v", ber, e2e)
			s.FR.BER, s.FR.CrcBits, s.FR.E2ECheck, s.FR.RetryLimit = ber, o.CrcBits, e2e, o.RetryLimit
			rows = append(rows, s)
		}
	}
	return rows
}
