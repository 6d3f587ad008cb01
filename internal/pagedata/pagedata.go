// Package pagedata synthesizes page contents by data class.
//
// The paper observes that not all WSC data compresses: multimedia and
// encrypted end-user content are incompressible even when cold (~31% of
// cold memory), while the rest compresses 2–6x with a median of 3x
// (Figure 9a). This package generates deterministic 4 KiB page images in
// five classes whose compressibility under the repo's LZ77 compressor
// spans that range, so the evaluation's compression-ratio distributions
// emerge from real compression rather than being hard-coded.
//
// Content is a pure function of (class, seed), so the simulator never has
// to store page bodies: a page's bytes are regenerated on demand when it
// is compressed.
package pagedata

import "fmt"

// Class describes the kind of data a page holds.
type Class uint8

const (
	// ClassZero is an untouched or zeroed page (compresses almost to nothing).
	ClassZero Class = iota
	// ClassText is natural-language-like text (logs, HTML, protobufs in
	// text form); compresses well.
	ClassText
	// ClassStructured is repeated fixed-shape records with varying fields
	// (in-memory tables, caches); compresses very well.
	ClassStructured
	// ClassNumeric is dense numeric data with locality (counters, ML
	// weights, time series); compresses moderately.
	ClassNumeric
	// ClassRandom is encrypted or already-compressed content (media,
	// ciphertext); incompressible.
	ClassRandom

	numClasses = 5
)

// String returns the class name.
func (c Class) String() string {
	switch c {
	case ClassZero:
		return "zero"
	case ClassText:
		return "text"
	case ClassStructured:
		return "structured"
	case ClassNumeric:
		return "numeric"
	case ClassRandom:
		return "random"
	default:
		return fmt.Sprintf("class(%d)", uint8(c))
	}
}

// NumClasses is the number of defined data classes.
const NumClasses = numClasses

// xorshift64star is a tiny deterministic PRNG; pagedata cannot depend on
// math/rand because page content must be reproducible from a uint64 seed
// with no shared state.
type xorshift64 uint64

func newXorshift(seed uint64) xorshift64 {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return xorshift64(seed)
}

func (x *xorshift64) next() uint64 {
	v := uint64(*x)
	v ^= v >> 12
	v ^= v << 25
	v ^= v >> 27
	*x = xorshift64(v)
	return v * 0x2545F4914F6CDD1D
}

func (x *xorshift64) intn(n int) int {
	return int(x.next() % uint64(n))
}

// Generate fills buf with deterministic content of the given class derived
// from seed. The same (class, seed, len(buf)) always produces identical
// bytes.
func Generate(buf []byte, class Class, seed uint64) {
	switch class {
	case ClassZero:
		for i := range buf {
			buf[i] = 0
		}
	case ClassText:
		generateText(buf, seed)
	case ClassStructured:
		generateStructured(buf, seed)
	case ClassNumeric:
		generateNumeric(buf, seed)
	case ClassRandom:
		generateRandom(buf, seed)
	default:
		panic(fmt.Sprintf("pagedata: unknown class %d", class))
	}
}

// words is a small vocabulary; repeated words give text pages their
// LZ-compressible structure, as English does. It is an array so that its
// length is a constant and drawing a word costs a multiply, not a hardware
// division.
var words = [...]string{
	"the", "query", "server", "request", "latency", "memory", "page",
	"cache", "error", "status", "handler", "client", "response", "bytes",
	"shard", "table", "index", "commit", "replica", "user", "session",
	"timeout", "retry", "backend", "frontend", "cluster", "machine",
	"warehouse", "scale", "computer", "cold", "far", "compressed",
}

// slot is a word padded to slotSize bytes: away from the end of the buffer
// a word is written as one fixed-size store instead of a memmove call, and
// the padding lands where the separator and the next word overwrite it.
type slot struct {
	text [slotSize]byte
	n    int
}

const slotSize = 16

var slots = func() (t [len(words)]slot) {
	for i, w := range words {
		t[i].n = copy(t[i].text[:], w)
	}
	return t
}()

func generateText(buf []byte, seed uint64) {
	rng := newXorshift(seed)
	i := 0
	for i < len(buf) {
		w := &slots[rng.intn(len(slots))]
		if i+slotSize <= len(buf) {
			*(*[slotSize]byte)(buf[i:]) = w.text
			i += w.n
		} else {
			i += copy(buf[i:], w.text[:w.n])
		}
		if i < len(buf) {
			if rng.intn(12) == 0 {
				buf[i] = '\n'
			} else {
				buf[i] = ' '
			}
			i++
		}
	}
}

// generateStructured emits fixed-shape 64-byte records where only a few
// fields vary between records, mimicking in-memory row or cache-entry
// layouts.
func generateStructured(buf []byte, seed uint64) {
	rng := newXorshift(seed)
	const recordSize = 64
	var template [recordSize]byte
	for i := range template {
		template[i] = byte(rng.next())
	}
	counter := rng.next()
	for off := 0; off < len(buf); off += recordSize {
		n := copy(buf[off:], template[:])
		// Vary an 8-byte key and a 2-byte flag field per record.
		if n >= 10 {
			counter++
			putUint64(buf[off:], counter)
			buf[off+8] = byte(rng.intn(4))
			buf[off+9] = 0
		}
	}
}

// generateNumeric emits a random walk of 64-bit values: large shared high
// bytes with small per-sample deltas, the way counters and dense float
// arrays look in memory.
func generateNumeric(buf []byte, seed uint64) {
	rng := newXorshift(seed)
	v := rng.next() &^ 0xFFFF // high bits shared across the page
	for off := 0; off+8 <= len(buf); off += 8 {
		v += uint64(rng.intn(7))
		putUint64(buf[off:], v)
	}
	for off := len(buf) &^ 7; off < len(buf); off++ {
		buf[off] = byte(v)
	}
}

func generateRandom(buf []byte, seed uint64) {
	rng := newXorshift(seed)
	i := 0
	for ; i+8 <= len(buf); i += 8 {
		putUint64(buf[i:], rng.next())
	}
	for ; i < len(buf); i++ {
		buf[i] = byte(rng.next())
	}
}

func putUint64(b []byte, v uint64) {
	_ = b[7]
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
	b[4] = byte(v >> 32)
	b[5] = byte(v >> 40)
	b[6] = byte(v >> 48)
	b[7] = byte(v >> 56)
}

// Mix is a categorical distribution over data classes. Workload archetypes
// define a Mix to control the compressibility of their memory.
type Mix struct {
	weights [numClasses]float64
	total   float64
}

// NewMix builds a Mix from per-class weights (nonnegative, not all zero).
func NewMix(zero, text, structured, numeric, random float64) Mix {
	m := Mix{weights: [numClasses]float64{zero, text, structured, numeric, random}}
	for _, w := range m.weights {
		if w < 0 {
			panic("pagedata: negative mix weight")
		}
		m.total += w
	}
	if m.total == 0 {
		panic("pagedata: all mix weights zero")
	}
	return m
}

// Sample draws a class using u, a uniform random value in [0, 1).
func (m Mix) Sample(u float64) Class {
	target := u * m.total
	acc := 0.0
	for c, w := range m.weights {
		acc += w
		if target < acc {
			return Class(c)
		}
	}
	return ClassRandom
}

// Weight returns the normalized probability of class c.
func (m Mix) Weight(c Class) float64 {
	if int(c) >= numClasses {
		return 0
	}
	return m.weights[c] / m.total
}

// DefaultMix approximates the fleet-wide blend the paper reports: roughly
// 31% of cold memory incompressible, the rest compressing 2–6x with a 3x
// median.
var DefaultMix = NewMix(0.05, 0.25, 0.20, 0.22, 0.28)
