package compress

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"sdfm/internal/pagedata"
)

// The byte reference the shipped encoder and decoder are held to: the
// code this package shipped before the match table stopped being cleared.
// referenceCompress fills a fresh table with −1 on every call and extends
// matches one byte at a time; referenceDecompress copies every match byte
// by byte. They are that code verbatim, only renamed, and share
// emitSequence, readLenExt and the constants with the shipped package
// (none of which changed). They live here, not in the shipped package
// (precedent: internal/model/reference_test.go,
// internal/workload/reference_test.go).

func referenceCompress(dst, src []byte) []byte {
	if len(src) == 0 {
		return dst
	}
	var table [hashSize]int32
	for i := range table {
		table[i] = -1
	}

	s := 0      // scan position
	anchor := 0 // start of pending literal run
	// Leave room so load32 at s and the match extension never read past
	// the buffer.
	sLimit := len(src) - minMatch

	for s <= sLimit {
		h := hash4(load32(src, s))
		cand := int(table[h])
		table[h] = int32(s)
		if cand < 0 || s-cand > maxOffset || load32(src, cand) != load32(src, s) {
			s++
			continue
		}
		// Extend the match backwards over pending literals.
		for s > anchor && cand > 0 && src[s-1] == src[cand-1] {
			s--
			cand--
		}
		// Extend forwards.
		matchLen := minMatch
		for s+matchLen < len(src) && src[cand+matchLen] == src[s+matchLen] {
			matchLen++
		}
		dst = emitSequence(dst, src[anchor:s], matchLen, s-cand)
		s += matchLen
		anchor = s
		// Re-prime the table inside the match so long runs keep matching.
		if s-2 > 0 && s-2 <= sLimit {
			table[hash4(load32(src, s-2))] = int32(s - 2)
		}
	}
	// Final literals-only sequence.
	return emitSequence(dst, src[anchor:], 0, 0)
}

func referenceDecompress(dst, src []byte, maxLen int) ([]byte, error) {
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
		// Byte-by-byte copy: matches may overlap their own output.
		pos := len(dst) - offset
		for k := 0; k < matchLen; k++ {
			dst = append(dst, dst[pos+k])
		}
	}
	return dst, nil
}

const pageSize = 4096

// classPage returns a fresh n-byte image of the given pagedata class.
func classPage(n int, class pagedata.Class, seed uint64) []byte {
	buf := make([]byte, n)
	pagedata.Generate(buf, class, seed)
	return buf
}

// checkAgainstReference compresses src with both encoders, requires equal
// bytes, and requires both decoders to return src from them.
func checkAgainstReference(t testing.TB, what string, src []byte) {
	t.Helper()
	want := referenceCompress(nil, src)
	got := Compress(nil, src)
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: Compress differs from the reference at byte %d (%d vs %d bytes out)",
			what, firstDiff(got, want), len(got), len(want))
	}
	for _, dec := range []struct {
		name string
		fn   func(dst, src []byte, maxLen int) ([]byte, error)
	}{{"Decompress", Decompress}, {"referenceDecompress", referenceDecompress}} {
		back, err := dec.fn(nil, got, len(src))
		if err != nil || !bytes.Equal(back, src) {
			t.Fatalf("%s: %s did not return the input (err %v, %d of %d bytes)", what, dec.name, err, len(back), len(src))
		}
	}
}

func firstDiff(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

func TestCompressMatchesReference(t *testing.T) {
	t.Run("classes", func(t *testing.T) {
		for c := pagedata.Class(0); c < pagedata.NumClasses; c++ {
			for seed := uint64(0); seed < 2000; seed++ {
				checkAgainstReference(t, fmt.Sprintf("%v seed %d", c, seed), classPage(pageSize, c, seed))
			}
		}
	})
	t.Run("lengths", func(t *testing.T) {
		// 70,000 and 300 KiB+ reach past maxOffset, where a candidate is
		// found and refused for distance; the latter is the shape of a
		// tracestore chunk.
		for _, n := range []int{0, 1, 3, 4, 5, 17, 255, 4095, 4097, 70000, 300<<10 + 13} {
			for c := pagedata.Class(0); c < pagedata.NumClasses; c++ {
				checkAgainstReference(t, fmt.Sprintf("%v len %d", c, n), classPage(n, c, uint64(n)+7))
			}
		}
	})
	t.Run("sequences", func(t *testing.T) {
		// The hazard a never-cleared table adds: an entry an earlier call
		// left behind being taken for a candidate. One goroutine, so every
		// call borrows the table the previous one returned; classes
		// alternate and lengths go short-after-long and long-after-short,
		// so positions a long input wrote lie beyond a short one's end.
		lengths := []int{pageSize, 17, 70000, 5, pageSize, 255, 4097, 1, pageSize, 4095}
		for i := 0; i < 10000; i++ {
			n := lengths[i%len(lengths)]
			if n == 70000 && i%100 != 2 {
				n = pageSize
			}
			c := pagedata.Class(i % pagedata.NumClasses)
			checkAgainstReference(t, fmt.Sprintf("call %d (%v len %d)", i, c, n), classPage(n, c, uint64(i/3)))
		}
	})
}

// TestMatcherWrap drives one matcher's base across the 32-bit wrap: the
// table must be cleared exactly once, on the call whose positions would not
// fit, and the output must not notice.
func TestMatcherWrap(t *testing.T) {
	// Fill the table with live entries just below the wrap, as a long
	// history of calls would have.
	m := &matcher{base: 1<<32 - 5000 - 70000}
	m.compress(nil, classPage(70000, pagedata.ClassText, 1))
	if m.base != 1<<32-5000 {
		t.Fatalf("base = %d after priming, want %d", m.base, 1<<32-5000)
	}
	wantBase := []uint32{1<<32 - 5000 + pageSize, 1 + pageSize, 1 + 2*pageSize}
	for i, want := range wantBase {
		src := classPage(pageSize, pagedata.ClassText, uint64(i))
		if got := m.compress(nil, src); !bytes.Equal(got, referenceCompress(nil, src)) {
			t.Fatalf("page %d across the wrap differs from the reference", i)
		}
		if m.base != want {
			t.Fatalf("base = %d after page %d, want %d (cleared exactly once, on page 1)", m.base, i, want)
		}
	}
}

// TestCompressConcurrent has goroutines borrow and return matchers at once
// (what cluster.Run does); run under -race in CI.
func TestCompressConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				c := pagedata.Class((i + g) % pagedata.NumClasses)
				src := classPage(pageSize, c, uint64(g*2000+i))
				if !bytes.Equal(Compress(nil, src), referenceCompress(nil, src)) {
					t.Errorf("goroutine %d page %d (%v) differs from the reference", g, i, c)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestCompressAllocatesNothing holds DESIGN.md's "steady-state stores
// allocate nothing": a warm Compress into a dst with room borrows its
// table and returns it.
func TestCompressAllocatesNothing(t *testing.T) {
	src := classPage(pageSize, pagedata.ClassText, 7)
	dst := make([]byte, 0, CompressBound(len(src)))
	dst = Compress(dst[:0], src)
	if allocs := testing.AllocsPerRun(200, func() { dst = Compress(dst[:0], src) }); allocs != 0 {
		t.Errorf("warm Compress allocates %v times per call, want 0", allocs)
	}
}
