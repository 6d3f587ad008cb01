//go:build race

package main

// raceEnabled lets the multi-hour fleet runs skip under the race
// detector's slowdown.
const raceEnabled = true
