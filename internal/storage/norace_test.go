//go:build !race

package storage

// raceEnabled reports whether the test binary is built with the race
// detector, which allocates on its own and so voids allocation counts.
const raceEnabled = false
