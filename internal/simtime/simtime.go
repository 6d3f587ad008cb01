// Package simtime provides deterministic, labelled pseudo-random number
// streams for the far-memory simulator.
//
// Each subsystem draws from its own stream, derived from the run's seed and
// a label, so adding draws in one subsystem never perturbs another's
// sequence and every experiment is reproducible from its seed.
package simtime

import "math/rand"

// Rand returns a deterministic *rand.Rand derived from seed and a stream
// label. Different labels yield independent streams, so subsystems can draw
// randomness without perturbing each other's sequences.
func Rand(seed int64, label string) *rand.Rand {
	h := int64(1469598103934665603) // FNV-1a offset basis (truncated)
	for i := 0; i < len(label); i++ {
		h ^= int64(label[i])
		h *= 1099511628211
	}
	return rand.New(rand.NewSource(seed ^ h))
}
