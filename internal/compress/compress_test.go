package compress

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"sdfm/internal/pagedata"
)

func roundTrip(t *testing.T, src []byte) {
	t.Helper()
	comp := Compress(nil, src)
	got, err := Decompress(nil, comp, len(src))
	if err != nil {
		t.Fatalf("Decompress: %v (input %d bytes, compressed %d)", err, len(src), len(comp))
	}
	if !bytes.Equal(got, src) {
		t.Fatalf("round trip mismatch: %d bytes in, %d out", len(src), len(got))
	}
}

func TestRoundTripEmpty(t *testing.T) {
	comp := Compress(nil, nil)
	if len(comp) != 0 {
		t.Fatalf("empty input compressed to %d bytes", len(comp))
	}
	got, err := Decompress(nil, comp, 0)
	if err != nil || len(got) != 0 {
		t.Fatalf("decompress empty: %v, %d bytes", err, len(got))
	}
}

func TestRoundTripSmall(t *testing.T) {
	for n := 1; n <= 32; n++ {
		src := make([]byte, n)
		for i := range src {
			src[i] = byte(i * 7)
		}
		roundTrip(t, src)
	}
}

func TestRoundTripAllZeros(t *testing.T) {
	src := make([]byte, 4096)
	roundTrip(t, src)
	comp := Compress(nil, src)
	if len(comp) > 64 {
		t.Errorf("4096 zero bytes compressed to %d bytes; want < 64", len(comp))
	}
}

func TestRoundTripRepeated(t *testing.T) {
	src := bytes.Repeat([]byte("abcdefgh"), 512)
	roundTrip(t, src)
	comp := Compress(nil, src)
	if Ratio(len(src), len(comp)) < 10 {
		t.Errorf("repeated pattern ratio = %.1f, want > 10", Ratio(len(src), len(comp)))
	}
}

func TestRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	src := make([]byte, 4096)
	rng.Read(src)
	roundTrip(t, src)
	comp := Compress(nil, src)
	// Random data must not expand beyond the bound.
	if len(comp) > CompressBound(len(src)) {
		t.Errorf("compressed size %d exceeds bound %d", len(comp), CompressBound(len(src)))
	}
	if Ratio(len(src), len(comp)) > 1.05 {
		t.Errorf("random data ratio = %.2f; should be ~1", Ratio(len(src), len(comp)))
	}
}

func TestRoundTripText(t *testing.T) {
	src := bytes.Repeat([]byte("the quick brown fox jumps over the lazy dog. "), 100)
	src = src[:4096]
	roundTrip(t, src)
	comp := Compress(nil, src)
	if Ratio(len(src), len(comp)) < 3 {
		t.Errorf("repetitive text ratio = %.2f, want >= 3", Ratio(len(src), len(comp)))
	}
}

func TestRoundTripOverlappingMatch(t *testing.T) {
	// RLE-style data forces overlapping copies (offset < match length).
	src := append([]byte{1, 2}, bytes.Repeat([]byte{7}, 300)...)
	roundTrip(t, src)
}

func TestRoundTripLongLiteralRun(t *testing.T) {
	// > 15+255 literals exercises multi-byte length extension.
	rng := rand.New(rand.NewSource(9))
	src := make([]byte, 700)
	rng.Read(src)
	roundTrip(t, src)
}

func TestRoundTripLongMatch(t *testing.T) {
	// Match length extension path (> 15+4).
	src := append(bytes.Repeat([]byte{9}, 2000), 1, 2, 3)
	roundTrip(t, src)
}

func TestCompressAppendsToDst(t *testing.T) {
	prefix := []byte("header")
	src := bytes.Repeat([]byte("xy"), 100)
	out := Compress(append([]byte(nil), prefix...), src)
	if !bytes.HasPrefix(out, prefix) {
		t.Fatal("Compress clobbered dst prefix")
	}
	got, err := Decompress(nil, out[len(prefix):], len(src))
	if err != nil || !bytes.Equal(got, src) {
		t.Fatalf("decompress after append: %v", err)
	}
}

func TestDecompressRejectsOversizedOutput(t *testing.T) {
	src := bytes.Repeat([]byte("z"), 1000)
	comp := Compress(nil, src)
	if _, err := Decompress(nil, comp, 10); err == nil {
		t.Fatal("Decompress accepted output beyond maxLen")
	}
}

// corruptInputs are malformed blocks Decompress must refuse; they also seed
// FuzzDecompress.
var corruptInputs = [][]byte{
	{0xF0},            // claims 15+ext literals, no extension byte
	{0x40, 'a'},       // claims 4 literals, only 1 present
	{0x10, 'a', 5, 0}, // match with offset 5 into empty window
	{0x10, 'a', 0, 0}, // zero offset
	{0x00, 3},         // truncated offset
	{0xFF, 255},       // truncated literal extension
}

func TestDecompressCorruptInputs(t *testing.T) {
	for i, src := range corruptInputs {
		if _, err := Decompress(nil, src, 1<<20); err == nil {
			t.Errorf("case %d: corrupt input accepted", i)
		}
	}
}

func TestDecompressFuzzNoPanic(t *testing.T) {
	// Random byte strings must never panic the decoder.
	rng := rand.New(rand.NewSource(77))
	buf := make([]byte, 256)
	for i := 0; i < 2000; i++ {
		n := rng.Intn(len(buf))
		rng.Read(buf[:n])
		Decompress(nil, buf[:n], 8192) // error or not, must not panic
	}
}

func TestRoundTripQuick(t *testing.T) {
	f := func(src []byte) bool {
		comp := Compress(nil, src)
		got, err := Decompress(nil, comp, len(src))
		return err == nil && bytes.Equal(got, src)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestRoundTripQuickCompressible(t *testing.T) {
	// Low-entropy inputs exercise the match paths heavily.
	f := func(seed int64, n uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		src := make([]byte, int(n)%8192)
		for i := range src {
			src[i] = byte(rng.Intn(4))
		}
		comp := Compress(nil, src)
		got, err := Decompress(nil, comp, len(src))
		return err == nil && bytes.Equal(got, src)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCompressBound(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 1, 100, 4096, 70000} {
		src := make([]byte, n)
		rng.Read(src)
		comp := Compress(nil, src)
		if len(comp) > CompressBound(n) {
			t.Errorf("n=%d: compressed %d > bound %d", n, len(comp), CompressBound(n))
		}
	}
}

func TestRatio(t *testing.T) {
	if got := Ratio(4096, 1024); got != 4 {
		t.Errorf("Ratio = %v, want 4", got)
	}
	if got := Ratio(4096, 0); got != 0 {
		t.Errorf("Ratio with zero compressed size = %v, want 0", got)
	}
}

func TestCostModelCalibration(t *testing.T) {
	m := DefaultLZOCost
	// A 4 KiB page at 3:1 should decompress in single-digit microseconds
	// around the paper's 6.4 µs median.
	lat := m.DecompressLatency(4096/3, 4096)
	if lat < 5*time.Microsecond || lat > 8*time.Microsecond {
		t.Errorf("median-class decompression latency = %v, want ~6.4 µs", lat)
	}
	// Near the 2990-byte acceptance cutoff the latency should approach the
	// paper's tail (9.1 µs p98) without exploding.
	tail := m.DecompressLatency(2990, 4096)
	if tail < 8*time.Microsecond || tail > 15*time.Microsecond {
		t.Errorf("cutoff-class decompression latency = %v, want ~9-12 µs", tail)
	}
	if tail <= lat {
		t.Error("less compressible pages must cost more to decompress")
	}
}

func TestCostModelMonotone(t *testing.T) {
	m := DefaultLZOCost
	if m.CompressLatency(4096) <= m.CompressLatency(1024) {
		t.Error("compression latency must grow with input size")
	}
	if m.RejectLatency(4096) <= m.CompressLatency(4096) {
		t.Error("rejecting must cost at least the compression attempt")
	}
}

func BenchmarkCompressByClass(b *testing.B) {
	// Per-class compression throughput on 4 KiB pages of pagedata's five
	// classes, the images every zswap store compresses.
	for c := pagedata.Class(0); c < pagedata.NumClasses; c++ {
		b.Run(c.String(), func(b *testing.B) {
			src := classPage(pageSize, c, 7)
			dst := make([]byte, 0, CompressBound(len(src)))
			b.SetBytes(pageSize)
			for i := 0; i < b.N; i++ {
				dst = Compress(dst[:0], src)
			}
		})
	}
}
