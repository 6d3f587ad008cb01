package telemetry

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"
)

func intactEntry(tr *Trace, ts int64) Entry {
	n := len(tr.Thresholds)
	e := Entry{
		Key:             JobKey{Cluster: "c", Machine: "m", Job: "j"},
		TimestampSec:    ts,
		IntervalMinutes: 5,
		WSSPages:        10,
		TotalPages:      100,
		ColdTails:       make([]uint64, n),
		PromoTails:      make([]uint64, n),
	}
	for i := 0; i < n; i++ {
		e.ColdTails[i] = uint64(50 - i)
		e.PromoTails[i] = uint64(25 - i)
	}
	return e
}

func TestAppendStampsChecksum(t *testing.T) {
	tr := NewTrace()
	if err := tr.Append(intactEntry(tr, 300)); err != nil {
		t.Fatal(err)
	}
	e := tr.Entries[0]
	if e.Checksum == 0 {
		t.Fatal("append left checksum unset")
	}
	if err := e.VerifyChecksum(); err != nil {
		t.Fatal(err)
	}
	e.WSSPages++
	if err := e.VerifyChecksum(); err == nil {
		t.Error("mutated entry still verifies")
	}
}

func TestScrubDropsUnverifiedEntries(t *testing.T) {
	tr := NewTrace()
	for i := int64(1); i <= 4; i++ {
		if err := tr.Append(intactEntry(tr, i*300)); err != nil {
			t.Fatal(err)
		}
	}
	tr.Entries[1].TotalPages++    // stale checksum: must go
	tr.Entries[2].Checksum = 0    // unstamped: must go
	tr.Entries[3].ColdTails = nil // structurally invalid: must go
	if dropped := tr.Scrub(); dropped != 3 {
		t.Fatalf("scrub dropped %d, want 3", dropped)
	}
	if tr.Len() != 1 || tr.Entries[0].TimestampSec != 300 {
		t.Fatalf("scrub left %d entries, want only the intact one", tr.Len())
	}
}

// fuzzEntries builds a batch of 0–11 entries from raw bytes, reading
// zeros once raw runs out. The second byte's low bits pick which tail
// lengths are drawn per entry, cold (1) and promo (2), rather than once
// for the batch: a group of four whose lengths all agree hashes in lock
// step, a ragged one falls back to the scalar hash. A length byte of 0 is
// a nil column; key strings may be empty.
func fuzzEntries(raw []byte) []Entry {
	next := func() byte {
		if len(raw) == 0 {
			return 0
		}
		b := raw[0]
		raw = raw[1:]
		return b
	}
	word := func() uint64 { return uint64(next()) * 0x9e3779b97f4a7c15 }
	str := func() string {
		n := int(next() % 6)
		s := make([]byte, n)
		for i := range s {
			s[i] = next()
		}
		return string(s)
	}
	tails := func(lenByte byte) []uint64 {
		if lenByte == 0 {
			return nil
		}
		t := make([]uint64, (lenByte-1)%24)
		for i := range t {
			t[i] = word()
		}
		return t
	}
	entries := make([]Entry, next()%12)
	mode := next() % 4
	nc, np := next(), next()
	for i := range entries {
		e := &entries[i]
		e.Key = JobKey{Cluster: str(), Machine: str(), Job: str()}
		e.TimestampSec = int64(word())
		e.IntervalMinutes = math.Float64frombits(word())
		e.WSSPages, e.TotalPages = word(), word()
		if mode&1 != 0 {
			nc = next()
		}
		if mode&2 != 0 {
			np = next()
		}
		e.ColdTails, e.PromoTails = tails(nc), tails(np)
		e.CompressibleFrac = math.Float64frombits(word())
	}
	return entries
}

// FuzzAppendChecksums: the four-lane kernel equals ComputeChecksum entry
// by entry, appended after whatever dst already holds, both when it
// hashes the keys itself and when it is handed their KeySums.
func FuzzAppendChecksums(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{4, 0, 22, 22})  // one lock-step group, empty keys, zero values
	f.Add([]byte{9, 0, 1, 0})    // empty and nil tail columns
	f.Add([]byte{11, 3, 22, 22}) // per-entry lengths, all zero after the first
	rng := rand.New(rand.NewPCG(1, 2))
	for _, n := range []int{64, 400, 1500} {
		raw := make([]byte, n)
		for i := range raw {
			raw[i] = byte(rng.Uint32())
		}
		raw[0] = 8 // two groups of four
		for mode := byte(0); mode < 4; mode++ {
			raw[1] = mode
			f.Add(slices.Clone(raw))
		}
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		entries := fuzzEntries(raw)
		got := AppendChecksums([]uint64{42}, entries)
		if len(got) != 1+len(entries) || got[0] != 42 {
			t.Fatalf("appended %d sums after %v for %d entries", len(got)-1, got[:1], len(entries))
		}
		keySums := make([]uint64, len(entries))
		for i := range entries {
			keySums[i] = KeySum(&entries[i].Key)
		}
		keyed := AppendChecksumsKeyed(nil, entries, keySums)
		for i := range entries {
			if want := entries[i].ComputeChecksum(); got[1+i] != want || keyed[i] != want {
				t.Fatalf("entry %d of %d: batch sum %#x, keyed %#x, ComputeChecksum %#x", i, len(entries), got[1+i], keyed[i], want)
			}
		}
	})
}
