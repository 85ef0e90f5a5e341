// Silent-corruption study: the failure mode Section 5 of the paper does not
// model is the flit that arrives on time with the wrong bits. Flit
// reservation is uniquely exposed to it — control flits race ahead of data
// programming per-cycle reservation tables, so a corrupted-but-delivered
// control flit can silently diverge a table from reality.
//
// The first half sweeps link bit-error rates with a deliberately weak 4-bit
// hop CRC and shows the layered defense: detected-corrupt data converts into
// the ordinary loss path that end-to-end retry recovers, escapes are caught
// by the destination's payload check and retried, and phantom reservations
// installed by escaped control corruption are reclaimed by the table timeout.
// Delivery stays total through bit-error rates two orders of magnitude
// beyond realistic links; the residual exposure is reported as a Wilson
// interval because escape counts are single digits out of hundreds offered.
//
// The second half turns one intensity knob into a deterministic chaos
// campaign — composed loss, corruption, link flaps, and (at full intensity)
// router kills — and shows graceful degradation: moderate chaos loses
// nothing, and at full intensity the only unfinished traffic is the handful
// of packets stranded by dead routers, failed fast as unreachable.
package main

import (
	"fmt"

	"frfc"
)

func main() {
	fmt.Println("FR6, 4x4 mesh, 5-flit packets, 4-bit hop CRC, retry budget 8")
	fmt.Println()
	pts, err := frfc.IntegritySweep(frfc.IntegritySweepOptions{ResolveOptions: frfc.ResolveOptions{Check: true}})
	if err != nil {
		panic(err)
	}
	fmt.Printf("%-8s %-4s %10s %10s %9s %8s %18s\n",
		"BER", "e2e", "delivered", "corrupted", "caught", "escapes", "escape rate (95%)")
	for _, p := range pts {
		e2e := "off"
		if p.E2ECheck {
			e2e = "on"
		}
		lo, hi := p.EscapeRateCI()
		fmt.Printf("%-8.0e %-4s %9.2f%% %10d %9d %8d   [%.4f, %.4f]\n",
			p.BER, e2e, p.DeliveredFraction()*100, p.CorruptedFlits, p.CrcDetected,
			p.CorruptEscapes, lo, hi)
	}
	fmt.Println()
	fmt.Println("Every row delivers 100%: detected corruption rides the loss/retry")
	fmt.Println("path, and with the end-to-end check on even escapes are caught and")
	fmt.Println("retried. With it off, the escape column is silently accepted data —")
	fmt.Println("the exposure a real deployment sizes its CRC against.")

	fmt.Println()
	fmt.Println("Chaos campaigns (deterministic in the seed; kills only at intensity >= 0.75):")
	fmt.Println()
	cpts, err := frfc.ChaosSweep(frfc.ChaosSweepOptions{ResolveOptions: frfc.ResolveOptions{Check: true}})
	if err != nil {
		panic(err)
	}
	for _, p := range cpts {
		fmt.Println(p)
	}
	fmt.Println()
	fmt.Println("Moderate intensity delivers everything despite flaps, loss and")
	fmt.Println("corruption; at full intensity only traffic addressed to killed")
	fmt.Println("routers is written off — fast, as unreachable, never abandoned.")
}
