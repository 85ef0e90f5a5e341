package frfc

import "frfc/internal/experiment"

// IntegrityPoint is one row of an IntegritySweep: a flit-reservation network
// run under a given link bit-error rate, with or without the end-to-end
// payload check, until every offered packet's fate is resolved.
// CorruptEscapes over Offered is its silent-corruption exposure,
// EscapeRateCI() the 95% Wilson interval around it.
type IntegrityPoint = experiment.IntegrityPoint

// IntegritySweepOptions parameterizes an IntegritySweep: the ResolveOptions,
// the RetryLimit, the modeled hop CRC width CrcBits (negative disables hop
// detection entirely), and the BERs swept, each run once with the end-to-end
// check on and once with it off. Zero fields take defaults: the
// ResolveOptions defaults (400 packets per row), retry budget 8, a
// deliberately weak 4-bit hop CRC (so escapes actually occur), and bit-error
// rates {0, 1e-4, 1e-3, 5e-3, 1e-2}.
type IntegritySweepOptions = experiment.IntegritySweepOptions

// IntegritySweep measures silent-corruption tolerance: for each bit-error
// rate it runs the flit-reservation network twice — end-to-end check on and
// off — until every offered packet resolves, and reports delivered fraction
// alongside the corruption ledger. With the check on, every escaped
// corruption is caught and retried, so delivery stays total even at bit-error
// rates far above realistic links; with it off, the escape rate is exactly
// the silently accepted corruption. The cells execute concurrently on the
// harness worker pool; the points are identical to a serial sweep.
func IntegritySweep(o IntegritySweepOptions) ([]IntegrityPoint, error) {
	return sweepCells(o.Workers, o.Cells())
}
