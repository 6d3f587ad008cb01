//go:build race

package fleet

// raceEnabled shrinks the full-size fast-versus-exact comparisons to
// their -short set under the race detector's slowdown: they check
// arithmetic on one goroutine, and TestGenerateToMatchesSerialSweep keeps
// the parallel sweep race-checked.
const raceEnabled = true
