//go:build race

package core

// raceEnabled: the race detector multiplies and scatters running times, so
// the timing test has nothing to measure under it.
const raceEnabled = true
