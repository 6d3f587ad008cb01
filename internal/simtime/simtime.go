// Package simtime provides deterministic, labelled pseudo-random number
// streams for the far-memory simulator.
//
// Each subsystem draws from its own stream, derived from the run's seed and
// a label, so adding draws in one subsystem never perturbs another's
// sequence and every experiment is reproducible from its seed.
//
// Rand returns a math/rand generator. NewStream returns a Stream, a
// concrete generator for hot loops that yields exactly the values the Rand
// of the same seed and label yields, method for method, with no interface
// call per draw:
//   - The generator is math/rand's additive lagged-Fibonacci one,
//     u[n] = u[n−607] + u[n−273] mod 2⁶⁴, kept as a ring of the last 607
//     values and refilled 607 at a time.
//   - Its seeding is math/rand's: the ring starts as the first 607 Uint64
//     outputs of the rand.Source that Rand builds, whose state after 607
//     draws is exactly those outputs, so no seeding table is copied.
//   - Float64, ExpFloat64, Intn and Int63 are math/rand's code over that
//     stream, Float64's resample of a draw that rounds to 1.0 included.
//     ExpFloat64's ziggurat tables are copied verbatim from the Go
//     standard library's math/rand (exp.go in this package, under the Go
//     Authors' BSD notice).
//
// math/rand guarantees its Go 1 value stream, so the two agree on every Go
// release; TestStreamMatchesRand and FuzzStreamMatchesRand hold them to it.
package simtime

import "math/rand"

// Rand returns a deterministic *rand.Rand derived from seed and a stream
// label. Different labels yield independent streams, so subsystems can draw
// randomness without perturbing each other's sequences.
func Rand(seed int64, label string) *rand.Rand {
	return rand.New(source(seed, label))
}

// source is the math/rand source behind Rand and NewStream.
func source(seed int64, label string) rand.Source {
	h := int64(1469598103934665603) // FNV-1a offset basis (truncated)
	for i := 0; i < len(label); i++ {
		h ^= int64(label[i])
		h *= 1099511628211
	}
	return rand.NewSource(seed ^ h)
}
