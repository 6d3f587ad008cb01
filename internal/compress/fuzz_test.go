package compress

import (
	"bytes"
	"testing"

	"sdfm/internal/pagedata"
)

// addClassSeeds seeds a fuzz corpus with an image of each pagedata class,
// raw or compressed. The images are an eighth of a page: the engine
// minimizes every input that reaches new coverage byte by byte, and on
// whole pages a ten-second smoke run spends itself doing only that.
func addClassSeeds(f *testing.F, compressed bool) {
	for c := pagedata.Class(0); c < pagedata.NumClasses; c++ {
		page := classPage(pageSize/8, c, 7)
		if compressed {
			page = Compress(nil, page)
		}
		f.Add(page)
	}
}

// FuzzCompressRoundTrip fuzzes the encoder against the reference: any
// input compresses to the reference's bytes and decompresses to itself.
func FuzzCompressRoundTrip(f *testing.F) {
	addClassSeeds(f, false)
	f.Add([]byte{})
	f.Add([]byte("abc"))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAgainstReference(t, "fuzz input", data)
	})
}

// FuzzDecompress fuzzes the decoder, which reads tracestore chunks
// straight from files: any input either decodes or returns an error —
// never a panic, never more output than maxLen — and agrees with the
// reference decoder on both the bytes produced and whether it failed.
func FuzzDecompress(f *testing.F) {
	addClassSeeds(f, true)
	for _, c := range corruptInputs {
		f.Add(c)
	}
	const maxLen = 1 << 16
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Decompress(nil, data, maxLen)
		if len(got) > maxLen {
			t.Fatalf("output of %d bytes exceeds maxLen %d", len(got), maxLen)
		}
		want, wantErr := referenceDecompress(nil, data, maxLen)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("Decompress error %v, reference error %v", err, wantErr)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("Decompress output differs from the reference at byte %d (%d vs %d bytes)",
				firstDiff(got, want), len(got), len(want))
		}
	})
}
