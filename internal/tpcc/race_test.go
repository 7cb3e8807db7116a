//go:build race

package tpcc

// raceEnabled reports whether the test binary is built with the race
// detector.
const raceEnabled = true
