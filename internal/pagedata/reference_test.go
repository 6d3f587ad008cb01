package pagedata

import (
	"bytes"
	"fmt"
	"testing"
)

// The byte reference Generate is held to: the generators this package
// shipped while words was a slice — two run-time 64-bit divisions per
// word of text (intn of a length the compiler cannot see) and a byte loop
// per word. referenceGenerate and everything it calls are that code
// verbatim, only renamed; xorshift64.next and putUint64 are shared with
// the shipped package (neither changed). It lives here, not in the
// shipped package (precedent: internal/model/reference_test.go,
// internal/workload/reference_test.go).

func (x *xorshift64) referenceIntn(n int) int {
	return int(x.next() % uint64(n))
}

func referenceGenerate(buf []byte, class Class, seed uint64) {
	switch class {
	case ClassZero:
		for i := range buf {
			buf[i] = 0
		}
	case ClassText:
		referenceGenerateText(buf, seed)
	case ClassStructured:
		referenceGenerateStructured(buf, seed)
	case ClassNumeric:
		referenceGenerateNumeric(buf, seed)
	case ClassRandom:
		referenceGenerateRandom(buf, seed)
	default:
		panic(fmt.Sprintf("pagedata: unknown class %d", class))
	}
}

var referenceWords = []string{
	"the", "query", "server", "request", "latency", "memory", "page",
	"cache", "error", "status", "handler", "client", "response", "bytes",
	"shard", "table", "index", "commit", "replica", "user", "session",
	"timeout", "retry", "backend", "frontend", "cluster", "machine",
	"warehouse", "scale", "computer", "cold", "far", "compressed",
}

func referenceGenerateText(buf []byte, seed uint64) {
	rng := newXorshift(seed)
	i := 0
	for i < len(buf) {
		w := referenceWords[rng.referenceIntn(len(referenceWords))]
		for j := 0; j < len(w) && i < len(buf); j++ {
			buf[i] = w[j]
			i++
		}
		if i < len(buf) {
			if rng.referenceIntn(12) == 0 {
				buf[i] = '\n'
			} else {
				buf[i] = ' '
			}
			i++
		}
	}
}

func referenceGenerateStructured(buf []byte, seed uint64) {
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
			buf[off+8] = byte(rng.referenceIntn(4))
			buf[off+9] = 0
		}
	}
}

func referenceGenerateNumeric(buf []byte, seed uint64) {
	rng := newXorshift(seed)
	v := rng.next() &^ 0xFFFF // high bits shared across the page
	for off := 0; off+8 <= len(buf); off += 8 {
		v += uint64(rng.referenceIntn(7))
		putUint64(buf[off:], v)
	}
	for off := len(buf) &^ 7; off < len(buf); off++ {
		buf[off] = byte(v)
	}
}

func referenceGenerateRandom(buf []byte, seed uint64) {
	rng := newXorshift(seed)
	i := 0
	for ; i+8 <= len(buf); i += 8 {
		putUint64(buf[i:], rng.next())
	}
	for ; i < len(buf); i++ {
		buf[i] = byte(rng.next())
	}
}

// TestGenerateMatchesReference holds Generate to the reference byte for
// byte. Lengths straddle the 8- and 16-byte steps the generators take, and
// both buffers start out dirty so a byte left unwritten shows.
func TestGenerateMatchesReference(t *testing.T) {
	for _, n := range []int{0, 1, 7, 15, 16, 17, 4095, 4096, 4097} {
		got, want := make([]byte, n), make([]byte, n)
		for c := Class(0); c < NumClasses; c++ {
			for seed := uint64(0); seed < 2000; seed++ {
				for i := range got {
					got[i], want[i] = 0xAA, 0x55
				}
				Generate(got, c, seed)
				referenceGenerate(want, c, seed)
				if !bytes.Equal(got, want) {
					t.Fatalf("%v seed %d len %d differs from the reference:\n got %q\nwant %q", c, seed, n, got, want)
				}
			}
		}
	}
}
