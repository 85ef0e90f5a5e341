//go:build race

package experiment

// raceEnabled reports that the race detector is compiled in; it allocates on
// the instrumented paths, so exact allocation counts mean nothing under it.
const raceEnabled = true
