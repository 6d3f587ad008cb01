package ckpt

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzDecodeCheckpoint hammers the checkpoint decoder with arbitrary
// bytes. The invariants: Decode never panics, never fails with anything
// but a wrapped sentinel, and anything it accepts re-encodes to a
// checkpoint that decodes to the same bytes (encoding is canonical).
func FuzzDecodeCheckpoint(f *testing.F) {
	valid, err := Encode(nil, testSnapshot())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	empty, err := Encode(nil, &Snapshot{Generation: 1, TelemetrySec: -1})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(empty)
	f.Add([]byte{})
	f.Add([]byte(Magic))
	f.Add(valid[:len(valid)/2])
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)-1] ^= 0xff
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Decode(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrUnsupportedVersion) {
				t.Fatalf("Decode error %v wraps no sentinel", err)
			}
			return
		}
		re, err := Encode(nil, s)
		if err != nil {
			t.Fatalf("accepted checkpoint failed to re-encode: %v", err)
		}
		s2, err := Decode(re)
		if err != nil {
			t.Fatalf("re-encoded checkpoint failed to decode: %v", err)
		}
		re2, err := Encode(nil, s2)
		if err != nil {
			t.Fatalf("second re-encode: %v", err)
		}
		if !bytes.Equal(re, re2) {
			t.Fatal("re-encoding is not a fixed point")
		}
	})
}
