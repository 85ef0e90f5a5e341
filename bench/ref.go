package main

import "time"

// refNominal is the wall time one reference pass took, in a quiet spell, on
// the host its sizes were chosen on. A pass that takes twice as long means
// the host runs at half speed right now, and the timed work between two
// passes is credited accordingly.
const refNominal = 0.135

// refSink keeps the compiler from discarding the kernel's work.
var refSink uint64

// refNode is a small heap object of the size the simulator allocates most.
type refNode struct {
	next *refNode
	v    [6]uint64
}

// refPass runs the fixed-work reference kernel once and returns its wall
// time in seconds. The kernel knows nothing about the repository. Its three
// equal parts are the things the simulator's hot path is made of — integer
// arithmetic, a sliding-window map with one insert and one delete per step,
// and short-lived small allocations walked through pointers — so the host's
// speed for that mix is what it measures. README.md has the measurements
// behind the mix and the sizes.
func refPass() float64 {
	start := time.Now()
	x := uint64(0x9E3779B97F4A7C15)
	var acc uint64

	for i := 0; i < 20_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		acc += x
	}

	const window = 4096
	live := make(map[int64]int, window)
	for i := int64(0); i < 1_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		live[i] = int(x & 0xffff)
		if i >= window {
			acc += uint64(live[i-window])
			delete(live, i-window)
		}
	}

	var head *refNode
	chain := 0
	for i := 0; i < 1_200_000; i++ {
		head = &refNode{next: head, v: [6]uint64{uint64(i)}}
		if chain++; chain > 2000 {
			for p := head; p != nil; p = p.next {
				acc += p.v[0]
			}
			head, chain = nil, 0
		}
		s := make([]uint64, 5)
		s[0] = uint64(i)
		acc += s[4] + s[0]
	}

	refSink += acc + uint64(len(live))
	return time.Since(start).Seconds()
}

// hostFactor turns the reference passes run immediately before and after a
// timed section into the host-speed factor h: wall/h is the section's
// duration in reference-seconds.
func hostFactor(before, after float64) float64 {
	return (before + after) / 2 / refNominal
}
