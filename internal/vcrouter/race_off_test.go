//go:build !race

package vcrouter

const raceEnabled = false
