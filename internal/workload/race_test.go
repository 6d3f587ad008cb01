//go:build race

package workload

// raceEnabled lets the single-goroutine law statistics skip under the race
// detector's ~15x slowdown; they compare distributions, not concurrency.
const raceEnabled = true
