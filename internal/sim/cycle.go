// Package sim provides the primitives every cycle-stepped network model in
// this repository is built from: the cycle type, a seeded pseudo-random number
// generator, and bandwidth-limited delay lines (pipes) that model pipelined
// wires. Each Network ticks its own routers, interfaces and sinks, in a fixed
// order, once per cycle.
//
// All inter-component communication travels through pipes with a latency of
// at least one cycle, so the order in which components tick within a cycle
// cannot change simulation results: anything sent during cycle t is invisible
// before cycle t+1.
package sim

// Cycle is a point in simulated time, measured in clock cycles from the start
// of the simulation. It is a distinct type so that cycle values cannot be
// confused with counts or indices.
type Cycle int64

// Never is a sentinel cycle value meaning "no time scheduled". It is far in
// the past so comparisons such as departAt == now can never match it.
const Never Cycle = -1 << 62
