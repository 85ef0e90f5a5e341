package frfc

import (
	"fmt"

	"frfc/internal/experiment"
	"frfc/internal/stats"
)

// IntegrityPoint is one row of an IntegritySweep: a flit-reservation network
// run under a given link bit-error rate, with or without the end-to-end
// payload check, until every offered packet's fate is resolved.
type IntegrityPoint struct {
	BER      float64
	CrcBits  int
	E2ECheck bool
	Resolved
}

// EscapeRate is corrupted-payload escapes per offered packet — the silent-
// corruption exposure. With the end-to-end check on, an escape is caught and
// retried, so exposure does not imply wrong data was accepted; with it off,
// every escape is accepted as-is.
func (p IntegrityPoint) EscapeRate() float64 {
	if p.Offered == 0 {
		return 0
	}
	return float64(p.CorruptEscapes) / float64(p.Offered)
}

// EscapeRateCI is the 95% Wilson interval around EscapeRate. Escape counts
// are single digits out of a few hundred offered packets, so the interval —
// not the point estimate — is the honest statement of exposure; at zero
// observed escapes it still has positive width (the rule of three).
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
		p.BER, e2e, p.DeliveredFraction()*100, p.Corrupted, p.CrcDetected, p.CorruptEscapes, p.Retried)
}

// IntegritySweepOptions parameterizes an IntegritySweep. Zero fields take
// defaults: the ResolveOptions defaults (400 packets per row), retry budget 8,
// a deliberately weak 4-bit hop CRC (so escapes actually occur), and bit-error
// rates {0, 1e-4, 1e-3, 5e-3, 1e-2}.
type IntegritySweepOptions struct {
	ResolveOptions
	RetryLimit int
	// CrcBits is the modeled hop CRC width (negative disables hop
	// detection entirely).
	CrcBits int
	// BERs are the bit-error rates swept; each runs once with the
	// end-to-end check on and once with it off.
	BERs []float64
}

// IntegritySweep measures silent-corruption tolerance: for each bit-error
// rate it runs the flit-reservation network twice — end-to-end check on and
// off — until every offered packet resolves, and reports delivered fraction
// alongside the corruption ledger. With the check on, every escaped
// corruption is caught and retried, so delivery stays total even at bit-error
// rates far above realistic links; with it off, EscapeRate is exactly the
// silently accepted corruption. The cells execute concurrently on the
// harness worker pool; the points are identical to a serial sweep.
func IntegritySweep(o IntegritySweepOptions) ([]IntegrityPoint, error) {
	cells := experiment.IntegritySweepOptions{
		ResolveOptions: o.internal(), RetryLimit: o.RetryLimit, CrcBits: o.CrcBits, BERs: o.BERs,
	}.Cells()
	return sweepCells(o.ResolveOptions, cells, func(p experiment.IntegrityPoint) IntegrityPoint {
		return IntegrityPoint{BER: p.BER, CrcBits: p.CrcBits, E2ECheck: p.E2ECheck, Resolved: resolvedOf(p.Resolved)}
	})
}
