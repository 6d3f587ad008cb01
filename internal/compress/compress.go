// Package compress implements the fast LZ77-family byte compressor the
// far-memory system uses to compress cold pages, plus the latency cost
// model used to account CPU cycles for compression and decompression.
//
// The paper uses lzo inside the kernel, chosen after comparing lzo, lz4,
// and snappy for the best trade-off between speed and ratio. This package
// implements the same family of algorithm from scratch: a greedy
// hash-chain LZ77 with byte-aligned token encoding (literal runs + back
// references), tuned for 4 KiB pages. The exact bitstream differs from
// lzo's, but the compression-ratio behaviour by data class — the property
// the evaluation depends on — is equivalent.
//
// A store is a Compress call, and the simulator makes ~10⁵ of them per
// machine before the first step, so the encoder never clears its 32 KiB
// match table for a 4 KiB page: tables are pooled and entries are stamped
// with a per-call base that makes everything an earlier call left behind
// read as empty (see matcher). The encoder's output is pinned three ways
// — TestGoldenBytes at the module root, the golden cluster fingerprint,
// and byte equality with the straightforward encoder kept in
// reference_test.go — so a speed-up here may not move a byte.
package compress

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sync"
)

const (
	minMatch  = 4
	hashLog   = 13
	hashSize  = 1 << hashLog
	maxOffset = 65535
)

// ErrCorrupt is returned by Decompress when the input is not a valid
// compressed block.
var ErrCorrupt = errors.New("compress: corrupt input")

// CompressBound returns the maximum compressed size for an input of n
// bytes (the worst case is all literals plus token overhead).
func CompressBound(n int) int {
	return n + n/255 + 16
}

func hash4(u uint32) uint32 {
	return (u * 2654435761) >> (32 - hashLog)
}

func load32(b []byte, i int) uint32 {
	return binary.LittleEndian.Uint32(b[i:])
}

func load64(b []byte, i int) uint64 {
	return binary.LittleEndian.Uint64(b[i:])
}

// matcher is the encoder's match table: for each hash of four bytes, the
// last position that hashed there. An entry holds pos+base; a call takes
// the values [base, base+len(src)) for its positions and leaves base at
// their end, so the table is never cleared between calls. The invariant
// that makes leftovers harmless: every entry >= base was written by the
// call in progress — earlier calls wrote only values below their own end,
// which is at most this call's base — so "entry < base" means exactly
// what an empty slot means. base starts at 1 so that a zeroed table is all
// empty.
type matcher struct {
	table [hashSize]uint32
	base  uint32
}

// matchers lends each Compress call a table. Calls run concurrently
// (cluster.Run steps machines on several goroutines), hence a pool
// rather than one package-level table.
var matchers = sync.Pool{New: func() any { return &matcher{base: 1} }}

// Compress compresses src and appends the result to dst, returning the
// extended slice. An empty src compresses to an empty block. It is safe for
// concurrent use and allocates nothing once dst has room (at most
// CompressBound(len(src)) bytes are appended). src must be shorter than
// 4 GiB − 1; longer input panics.
//
// The bytes produced are a pure function of src: no state carries from one
// call to the next (see matcher), and the output for a given src is pinned
// by TestGoldenBytes, the golden cluster fingerprint and
// TestCompressMatchesReference.
//
// Block format (all lengths byte-aligned, offsets little-endian):
//
//	token: high nibble = literal run length (15 => extension bytes follow),
//	       low nibble  = match length - 4   (15 => extension bytes follow)
//	[literal length extension: 255* + remainder]
//	literals
//	[2-byte offset, match length extension]   -- absent in the final sequence
//
// The final sequence of a block carries only literals; the decoder detects
// it by input exhaustion after the literal run.
func Compress(dst, src []byte) []byte {
	if len(src) == 0 {
		return dst
	}
	m := matchers.Get().(*matcher)
	dst = m.compress(dst, src)
	matchers.Put(m)
	return dst
}

func (m *matcher) compress(dst, src []byte) []byte {
	if uint64(len(src)) >= math.MaxUint32 {
		panic(fmt.Sprintf("compress: input of %d bytes exceeds the 4 GiB limit", len(src)))
	}
	// Positions are stored as pos+base in 32 bits; when this call's would
	// not fit, start over from an empty table.
	if uint64(m.base)+uint64(len(src)) > math.MaxUint32 {
		clear(m.table[:])
		m.base = 1
	}
	base := m.base
	m.base += uint32(len(src))

	s := 0      // scan position
	anchor := 0 // start of pending literal run
	for {
		at, cand := m.nextMatch(src, s, base)
		if cand < 0 {
			break
		}
		s = at
		// Extend the match backwards over pending literals.
		for s > anchor && cand > 0 && src[s-1] == src[cand-1] {
			s--
			cand--
		}
		matchLen := minMatch + commonPrefix(src, cand+minMatch, s+minMatch)
		dst = emitSequence(dst, src[anchor:s], matchLen, s-cand)
		s += matchLen
		anchor = s
		// Re-prime the table inside the match so long runs keep matching.
		if s-2 > 0 && s-2 <= len(src)-minMatch {
			m.table[hash4(load32(src, s-2))] = uint32(s-2) + base
		}
	}
	// Final literals-only sequence.
	return emitSequence(dst, src[anchor:], 0, 0)
}

// nextMatch scans forward from s, entering every position it passes into
// the table, until the four bytes at s equal the four at the table's
// candidate for them; cand < 0 means no position up to the end matched.
// The scan stops minMatch short of the end so load32 never reads past it.
// It is a function of its own to keep the per-byte loop's live values in
// registers; inside compress the same loop ran twice as slow.
func (m *matcher) nextMatch(src []byte, s int, base uint32) (at, cand int) {
	for ; s <= len(src)-minMatch; s++ {
		u := load32(src, s)
		h := hash4(u)
		e := m.table[h]
		m.table[h] = uint32(s) + base
		if e < base {
			continue
		}
		cand := int(e - base)
		if s-cand <= maxOffset && load32(src, cand) == u {
			return s, cand
		}
	}
	return s, -1
}

// commonPrefix returns how many leading bytes src[a:] and src[b:] share,
// a < b, comparing eight at a time while both sides have them.
func commonPrefix(src []byte, a, b int) int {
	n := 0
	for b+n+8 <= len(src) {
		if x := load64(src, a+n) ^ load64(src, b+n); x != 0 {
			return n + bits.TrailingZeros64(x)>>3
		}
		n += 8
	}
	for b+n < len(src) && src[a+n] == src[b+n] {
		n++
	}
	return n
}

func emitSequence(dst, literals []byte, matchLen, offset int) []byte {
	litLen := len(literals)
	var token byte
	if litLen >= 15 {
		token = 15 << 4
	} else {
		token = byte(litLen) << 4
	}
	ml := 0
	if matchLen > 0 {
		ml = matchLen - minMatch
		if ml >= 15 {
			token |= 15
		} else {
			token |= byte(ml)
		}
	}
	dst = append(dst, token)
	if litLen >= 15 {
		dst = appendLenExt(dst, litLen-15)
	}
	dst = append(dst, literals...)
	if matchLen > 0 {
		dst = append(dst, byte(offset), byte(offset>>8))
		if ml >= 15 {
			dst = appendLenExt(dst, ml-15)
		}
	}
	return dst
}

func appendLenExt(dst []byte, n int) []byte {
	for n >= 255 {
		dst = append(dst, 255)
		n -= 255
	}
	return append(dst, byte(n))
}

// Decompress decompresses src, appending the output to dst. maxLen bounds
// the decompressed size (a malformed block claiming more output fails with
// ErrCorrupt rather than allocating unboundedly).
func Decompress(dst, src []byte, maxLen int) ([]byte, error) {
	base := len(dst)
	i := 0
	for i < len(src) {
		token := src[i]
		i++
		// Literal run.
		litLen := int(token >> 4)
		if litLen == 15 {
			n, ni, err := readLenExt(src, i)
			if err != nil {
				return dst, err
			}
			litLen += n
			i = ni
		}
		if i+litLen > len(src) {
			return dst, fmt.Errorf("%w: literal run past end", ErrCorrupt)
		}
		if len(dst)-base+litLen > maxLen {
			return dst, fmt.Errorf("%w: output exceeds limit %d", ErrCorrupt, maxLen)
		}
		dst = append(dst, src[i:i+litLen]...)
		i += litLen
		if i == len(src) {
			return dst, nil // final sequence
		}
		// Back reference.
		if i+2 > len(src) {
			return dst, fmt.Errorf("%w: truncated offset", ErrCorrupt)
		}
		offset := int(src[i]) | int(src[i+1])<<8
		i += 2
		if offset == 0 || offset > len(dst)-base {
			return dst, fmt.Errorf("%w: offset %d out of window", ErrCorrupt, offset)
		}
		matchLen := int(token&0xF) + minMatch
		if token&0xF == 15 {
			n, ni, err := readLenExt(src, i)
			if err != nil {
				return dst, err
			}
			matchLen += n
			i = ni
		}
		if len(dst)-base+matchLen > maxLen {
			return dst, fmt.Errorf("%w: output exceeds limit %d", ErrCorrupt, maxLen)
		}
		pos := len(dst) - offset
		if offset >= matchLen {
			dst = append(dst, dst[pos:pos+matchLen]...)
			continue
		}
		// The match overlaps its own output: copy byte by byte.
		for k := 0; k < matchLen; k++ {
			dst = append(dst, dst[pos+k])
		}
	}
	return dst, nil
}

func readLenExt(src []byte, i int) (n, next int, err error) {
	for {
		if i >= len(src) {
			return 0, 0, fmt.Errorf("%w: truncated length extension", ErrCorrupt)
		}
		b := src[i]
		i++
		n += int(b)
		if b != 255 {
			return n, i, nil
		}
	}
}

// Ratio returns the compression ratio originalSize/compressedSize, the
// quantity Figure 9a of the paper reports (3x median across jobs).
func Ratio(originalSize, compressedSize int) float64 {
	if compressedSize <= 0 {
		return 0
	}
	return float64(originalSize) / float64(compressedSize)
}
