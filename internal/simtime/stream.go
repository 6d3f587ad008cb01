package simtime

import (
	"math"
	"math/rand"
)

const (
	ringLen   = 607 // the long lag, math/rand's rngLen
	ringTap   = 273 // the short lag, math/rand's rngTap
	int63Mask = 1<<63 - 1
)

// Stream is a deterministic random stream that yields, method for method,
// the values of the *rand.Rand that Rand(seed, label) returns, through
// concrete methods the compiler can inline (see the package doc). It is
// not safe for concurrent use.
type Stream struct {
	// ring holds the next values to serve from pos on; the values before
	// pos were served. When pos reaches ringLen, refill replaces them all
	// with the next ringLen values.
	ring [ringLen]uint64
	pos  uint
}

// NewStream returns the Stream for seed and label: the same values as
// Rand(seed, label).
func NewStream(seed int64, label string) *Stream {
	src := source(seed, label).(rand.Source64)
	s := new(Stream)
	for i := range s.ring {
		s.ring[i] = src.Uint64()
	}
	return s
}

// refill advances the ring by ringLen values of u[n] = u[n−607] + u[n−273]
// (mod 2⁶⁴). ring[k] holds u[n−607] for the new u[n]; u[n−273] is still
// in the ring for k < ringTap and was written this pass for the rest.
func (s *Stream) refill() {
	r := &s.ring
	for k := 0; k < ringTap; k++ {
		r[k] += r[k+ringLen-ringTap]
	}
	for k := ringTap; k < ringLen; k++ {
		r[k] += r[k-ringTap]
	}
	s.pos = 0
}

// next returns the next value of the stream: rand.Rand.Uint64.
func (s *Stream) next() uint64 {
	if s.pos == ringLen {
		s.refill()
	}
	x := s.ring[s.pos]
	s.pos++
	return x
}

// Int63 returns a non-negative pseudo-random 63-bit integer, as
// rand.Rand.Int63 does.
func (s *Stream) Int63() int64 { return int64(s.next() & int63Mask) }

// Float64 and ExpFloat64 inline into their callers. Each serves the common
// case from the next value in the ring and hands every other case — a
// used-up ring, a draw that rounds to 1.0, the ziggurat's tail and wedge —
// to an out-of-line copy of math/rand's whole method, which draws that
// value afresh. The fallback is passed in as a parameter because the
// inliner charges a call to a parameter 17 of its budget of 80, and a call
// to a named function 57: with a named fallback neither fast path fits.

// Float64 returns a pseudo-random number in [0.0, 1.0), as
// rand.Rand.Float64 does: an Int63 that rounds to 1.0 is drawn again.
func (s *Stream) Float64() float64 { return peekFloat64(s, (*Stream).float64) }

func peekFloat64(s *Stream, slow func(*Stream) float64) float64 {
	if i := s.pos; i < ringLen {
		if f := float64(int64(s.ring[i]&int63Mask)) / (1 << 63); f != 1 {
			s.pos = i + 1
			return f
		}
	}
	return slow(s)
}

//go:noinline
func (s *Stream) float64() float64 {
	for {
		if f := float64(s.Int63()) / (1 << 63); f != 1 {
			return f
		}
	}
}

// ExpFloat64 returns an exponentially distributed float64 with rate 1, as
// rand.Rand.ExpFloat64 does. Its fast path is the ziggurat's first strip
// test, which accepts all but about 1 % of draws.
func (s *Stream) ExpFloat64() float64 { return peekExpFloat64(s, (*Stream).expFloat64) }

func peekExpFloat64(s *Stream, slow func(*Stream) float64) float64 {
	if i := s.pos; i < ringLen {
		if j := uint32(s.ring[i] >> 31); j < ke[j&0xFF] { // j is Uint32
			s.pos = i + 1
			return float64(j) * float64(we[j&0xFF])
		}
	}
	return slow(s)
}

//go:noinline
func (s *Stream) expFloat64() float64 {
	for {
		j := uint32(s.Int63() >> 31) // rand.Rand.Uint32
		i := j & 0xFF
		x := float64(j) * float64(we[i])
		if j < ke[i] {
			return x
		}
		if i == 0 {
			return re - math.Log(s.Float64())
		}
		if fe[i]+float32(s.Float64())*(fe[i-1]-fe[i]) < float32(math.Exp(-x)) {
			return x
		}
	}
}

// Intn returns a pseudo-random number in [0, n), as rand.Rand.Intn does.
// It panics if n <= 0.
func (s *Stream) Intn(n int) int {
	if n <= 0 {
		panic("invalid argument to Intn")
	}
	if n <= 1<<31-1 {
		return int(s.int31n(int32(n)))
	}
	return int(s.int63n(int64(n)))
}

// int31n is rand.Rand.Int31n for n > 0.
func (s *Stream) int31n(n int32) int32 {
	if n&(n-1) == 0 { // n is a power of two, can mask
		return int32(s.Int63()>>32) & (n - 1)
	}
	max := int32((1 << 31) - 1 - (1<<31)%uint32(n))
	v := int32(s.Int63() >> 32)
	for v > max {
		v = int32(s.Int63() >> 32)
	}
	return v % n
}

// int63n is rand.Rand.Int63n for n > 0.
func (s *Stream) int63n(n int64) int64 {
	if n&(n-1) == 0 { // n is a power of two, can mask
		return s.Int63() & (n - 1)
	}
	max := int64((1 << 63) - 1 - (1<<63)%uint64(n))
	v := s.Int63()
	for v > max {
		v = s.Int63()
	}
	return v % n
}
