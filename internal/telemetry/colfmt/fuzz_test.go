package colfmt

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"testing"

	"sdfm/internal/telemetry"
)

// FuzzDecodeChunk fuzzes the entry-column decoder, under both tail
// layouts, with arbitrary bytes and arbitrary claimed shapes. The decoder
// sits behind a CRC in normal operation, but corruption recovery, hostile
// files and hostile agents can hand it anything, so the contract is
// absolute: any input either decodes or records an error — never a panic,
// never an allocation sized by a lying count — and whatever decodes
// re-encodes to a fixed point. It also decodes exactly as
// referenceDecodeEntries: the same entries, error and cursor position.
func FuzzDecodeChunk(f *testing.F) {
	// Seed with well-formed payloads at a few shapes, plus their
	// truncations and mutations; testdata/fuzz holds checked-in seeds for
	// the interesting structural edges.
	entries := []telemetry.Entry{
		{
			Key:          telemetry.JobKey{Cluster: "c0", Machine: "m0", Job: "alpha"},
			TimestampSec: 300, IntervalMinutes: 5, WSSPages: 100, TotalPages: 400,
			ColdTails: []uint64{9, 7, 3}, PromoTails: []uint64{30, 20, 10},
			CompressibleFrac: 0.7, Checksum: 12345,
		},
		{
			Key:          telemetry.JobKey{Cluster: "c0", Machine: "m1", Job: "beta"},
			TimestampSec: 600, IntervalMinutes: 5, WSSPages: 50, TotalPages: 200,
			ColdTails: []uint64{5, 5, 0}, PromoTails: []uint64{8, 1, 0},
			CompressibleFrac: 1, Checksum: 67890,
		},
	}
	valid, err := AppendEntries(nil, entries, Fixed(3))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid, 2, 3)
	f.Add(valid[:len(valid)/2], 2, 3)                                               // truncated
	f.Add(valid, 200, 3)                                                            // entry count lies
	f.Add(valid, 2, 21)                                                             // threshold count lies
	f.Add([]byte{}, 1, 1)                                                           // empty
	f.Add([]byte{0x00}, 1, 1)                                                       // zero job directory
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01}, 1, 1) // huge varint
	prefixed, err := AppendEntries(nil, entries, Prefixed)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(prefixed, 2, 3)
	f.Add(prefixed[:len(prefixed)/2], 2, 3)
	// A tail value whose 10th varint byte is 2: one bit past 64, which
	// the tail-run reader must refuse as Uvarint does.
	wide := slices.Clone(entries)
	wide[0].ColdTails = []uint64{math.MaxUint64, 7, 3}
	overflow, err := AppendEntries(nil, wide, Prefixed)
	if err != nil {
		f.Fatal(err)
	}
	maxVarint := binary.AppendUvarint(nil, math.MaxUint64)
	at := bytes.Index(overflow, maxVarint) + len(maxVarint) - 1
	overflow[at] = 2
	f.Add(overflow, 2, 3)
	// Ragged tail counts: the second entry's columns differ from the
	// first's, so the decoder falls back to an offset table.
	ragged := slices.Clone(entries)
	ragged[1].ColdTails = []uint64{5, 5}
	ragged[1].PromoTails = []uint64{8, 1, 0, 0}
	raggedBuf, err := AppendEntries(nil, ragged, Prefixed)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raggedBuf, 2, 3)
	// Report-shaped tails: 21 thresholds, the upper ones zero, so runs of
	// one-byte values reach the eight-at-a-time path.
	wide21 := testEntries(3, 2, 21)
	for i := range wide21 {
		for j := 2; j < 21; j++ {
			wide21[i].ColdTails[j], wide21[i].PromoTails[j] = 0, 0
		}
	}
	report, err := AppendEntries(nil, wide21, Prefixed)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(report, 3, 21)

	f.Fuzz(func(t *testing.T, raw []byte, entryCount, nThresh int) {
		// The width reaches the decoder only from a validated file header
		// (tracestore.Meta.Validate), never from the payload.
		if nThresh <= 0 || nThresh > 255 {
			return
		}
		for _, layout := range []TailLayout{Fixed(nThresh), Prefixed} {
			c := NewCursor(raw)
			got := DecodeEntries(&c, entryCount, layout)
			ref := NewCursor(raw)
			want := referenceDecodeEntries(&ref, entryCount, layout)
			if !sameEntries(got, want) || fmt.Sprint(c.Err()) != fmt.Sprint(ref.Err()) || c.pos != ref.pos {
				t.Fatalf("layout %+v: decoded %d entries, err %v at %d; reference %d entries, err %v at %d",
					layout, len(got), c.Err(), c.pos, len(want), ref.Err(), ref.pos)
			}
			if c.Err() != nil {
				if got != nil {
					t.Fatalf("layout %+v: entries returned alongside %v", layout, c.Err())
				}
				continue
			}
			// A successful decode must be internally consistent.
			if len(got) != entryCount {
				t.Fatalf("layout %+v: decoded %d entries, claimed %d", layout, len(got), entryCount)
			}
			for i := range got {
				if layout != Prefixed && (len(got[i].ColdTails) != nThresh || len(got[i].PromoTails) != nThresh) {
					t.Fatalf("entry %d has %d/%d tails, want %d",
						i, len(got[i].ColdTails), len(got[i].PromoTails), nThresh)
				}
			}
			// And re-encode to a fixed point (the input itself may use
			// non-minimal varints or an unordered directory, so compare
			// re-encodes, not the input).
			b1, err := AppendEntries(nil, got, layout)
			if err != nil {
				t.Fatalf("layout %+v: re-encoding decoded entries: %v", layout, err)
			}
			c2 := NewCursor(b1)
			got2 := DecodeEntries(&c2, len(got), layout)
			if err := c2.Done(); err != nil {
				t.Fatalf("layout %+v: decoding canonical re-encode: %v", layout, err)
			}
			b2, err := AppendEntries(nil, got2, layout)
			if err != nil || !bytes.Equal(b1, b2) {
				t.Fatalf("layout %+v: canonical encoding is not a fixed point (err %v)", layout, err)
			}
		}
	})
}

// sameEntries reports whether a and b hold the same entries bit for bit:
// reflect.DeepEqual would call two NaN fractions different.
func sameEntries(a, b []telemetry.Entry) bool {
	if len(a) != len(b) || (a == nil) != (b == nil) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Key != y.Key || x.TimestampSec != y.TimestampSec || x.WSSPages != y.WSSPages ||
			x.TotalPages != y.TotalPages || x.Checksum != y.Checksum ||
			math.Float64bits(x.IntervalMinutes) != math.Float64bits(y.IntervalMinutes) ||
			math.Float64bits(x.CompressibleFrac) != math.Float64bits(y.CompressibleFrac) ||
			!slices.Equal(x.ColdTails, y.ColdTails) || !slices.Equal(x.PromoTails, y.PromoTails) ||
			cap(x.ColdTails) != len(x.ColdTails) || cap(x.PromoTails) != len(x.PromoTails) {
			return false
		}
	}
	return true
}
