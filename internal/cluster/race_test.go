//go:build race

package cluster

// raceEnabled lets the long byte-determinism sims skip, or shorten, under
// the race detector's ~15x slowdown; they assert reproducibility, and the
// TestWorkerCount tests keep machines, stages and the flush race-checked.
const raceEnabled = true
