package colfmt

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"sdfm/internal/telemetry"
)

// testEntries builds n validated entries over jobs distinct jobs with
// width tails each, interleaved so the directory is exercised.
func testEntries(n, jobs, width int) []telemetry.Entry {
	out := make([]telemetry.Entry, n)
	for i := range out {
		e := telemetry.Entry{
			Key:              telemetry.JobKey{Cluster: "c0", Machine: fmt.Sprintf("m%d", i%jobs/4), Job: fmt.Sprintf("job-%d", i%jobs)},
			TimestampSec:     int64(300 * (1 + i/jobs)),
			IntervalMinutes:  5,
			WSSPages:         uint64(1000 + i),
			TotalPages:       uint64(5000 + 3*i),
			ColdTails:        make([]uint64, width),
			PromoTails:       make([]uint64, width),
			CompressibleFrac: 0.5 + float64(i%7)/20,
		}
		for j := 0; j < width; j++ {
			e.ColdTails[j] = uint64(4000 - 100*j + i)
			e.PromoTails[j] = uint64(60 - 2*j)
		}
		e.Checksum = e.ComputeChecksum()
		out[i] = e
	}
	return out
}

func decodeAll(t *testing.T, buf []byte, count int, layout TailLayout) []telemetry.Entry {
	t.Helper()
	c := NewCursor(buf)
	got := DecodeEntries(&c, count, layout)
	if err := c.Done(); err != nil {
		t.Fatalf("decode: %v", err)
	}
	return got
}

func TestRoundTripBothLayouts(t *testing.T) {
	for _, tc := range []struct {
		name   string
		layout TailLayout
		jobs   int
	}{
		{"prefixed", Prefixed, 5},
		{"fixed", Fixed(21), 5},
		// Past 64 jobs the encoder's directory switches from a scan to a
		// map; order, and so bytes and decode, must not notice.
		{"prefixed, 200 jobs", Prefixed, 200},
		{"fixed, 200 jobs", Fixed(21), 200},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := testEntries(600, tc.jobs, 21)
			buf, err := AppendEntries(nil, want, tc.layout)
			if err != nil {
				t.Fatal(err)
			}
			got := decodeAll(t, buf, len(want), tc.layout)
			if !reflect.DeepEqual(got, want) {
				t.Fatal("entries did not round-trip")
			}
			again, err := AppendEntries(nil, got, tc.layout)
			if err != nil || !bytes.Equal(again, buf) {
				t.Fatalf("re-encode differs (err %v)", err)
			}
		})
	}
}

func TestZeroEntriesAreZeroBytes(t *testing.T) {
	buf, err := AppendEntries([]byte("x"), nil, Prefixed)
	if err != nil || string(buf) != "x" {
		t.Fatalf("AppendEntries(nil) = %q, %v", buf, err)
	}
	c := NewCursor(nil)
	if got := DecodeEntries(&c, 0, Fixed(3)); got != nil || c.Done() != nil {
		t.Fatalf("DecodeEntries(0) = %v, %v", got, c.Done())
	}
}

// TestPrefixedCarriesDamagedEntriesVerbatim pins why report frames and
// checkpoints use the Prefixed layout: stale checksums, ragged and
// non-monotone tails all survive, so they are rejected where entries are
// validated and accounted, not lost in transit.
func TestPrefixedCarriesDamagedEntriesVerbatim(t *testing.T) {
	want := testEntries(4, 2, 3)
	want[1].WSSPages++                     // stale checksum
	want[2].PromoTails = []uint64{1, 5, 2} // non-monotone
	want[3].ColdTails = []uint64{}         // wrong width
	buf, err := AppendEntries(nil, want, Prefixed)
	if err != nil {
		t.Fatal(err)
	}
	if got := decodeAll(t, buf, len(want), Prefixed); !reflect.DeepEqual(got, want) {
		t.Fatalf("damaged entries altered in transit:\n got %+v\nwant %+v", got, want)
	}
}

func TestAppendEntriesRejectsWhatTheLayoutCannotHold(t *testing.T) {
	ragged := testEntries(2, 1, 3)
	ragged[1].PromoTails = ragged[1].PromoTails[:2]
	if buf, err := AppendEntries([]byte("x"), ragged, Fixed(3)); err == nil || string(buf) != "x" {
		t.Errorf("ragged tails under Fixed: buf %q, err %v", buf, err)
	}
	huge := []telemetry.Entry{{ColdTails: make([]uint64, MaxTails+1)}}
	if _, err := AppendEntries(nil, huge, Prefixed); err == nil {
		t.Error("oversized tail column accepted under Prefixed")
	}
}

func TestAppendEntriesWarmBufferIsAllocationFree(t *testing.T) {
	entries := testEntries(64, 5, 21)
	for _, layout := range []TailLayout{Prefixed, Fixed(21)} {
		buf, err := AppendEntries(nil, entries, layout)
		if err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(20, func() {
			buf, _ = AppendEntries(buf[:0], entries, layout)
		}); allocs != 0 {
			t.Errorf("layout %+v: warm re-encode allocates %.1f times, want 0", layout, allocs)
		}
	}
}

// TestDecodeAllocs pins a block's decode to four allocations whatever its
// job count: the directory's keys, one string holding their bytes, the
// entries and one tail arena.
func TestDecodeAllocs(t *testing.T) {
	entries := testEntries(64, 5, 21)
	for _, layout := range []TailLayout{Prefixed, Fixed(21)} {
		buf, err := AppendEntries(nil, entries, layout)
		if err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(20, func() {
			c := NewCursor(buf)
			DecodeEntries(&c, len(entries), layout)
		}); allocs > 4 {
			t.Errorf("layout %+v: decoding 64 entries of 5 jobs allocates %.1f times, want at most 4", layout, allocs)
		}
	}
}

// TestDirectoryIsOneString: decoded keys are substrings of one string
// that holds no field twice in a row — a report's jobs share their
// cluster and machine — and none of them points into the input.
func TestDirectoryIsOneString(t *testing.T) {
	entries := testEntries(8, 8, 3) // jobs 0-3 on m0, 4-7 on m1, all on c0
	buf, err := AppendEntries(nil, entries, Prefixed)
	if err != nil {
		t.Fatal(err)
	}
	got := decodeAll(t, buf, len(entries), Prefixed)
	for i := range entries {
		if got[i].Key != entries[i].Key {
			t.Fatalf("entry %d has key %v, want %v", i, got[i].Key, entries[i].Key)
		}
	}
	same := func(a, b string) bool { return unsafe.StringData(a) == unsafe.StringData(b) }
	if !same(got[0].Key.Cluster, got[7].Key.Cluster) || !same(got[0].Key.Machine, got[3].Key.Machine) ||
		same(got[0].Key.Machine, got[4].Key.Machine) || same(got[0].Key.Job, got[1].Key.Job) {
		t.Error("repeated cluster and machine fields are not shared, or distinct ones are")
	}
	lo, hi := uintptr(unsafe.Pointer(&buf[0])), uintptr(unsafe.Pointer(&buf[len(buf)-1]))
	for i := range got {
		for _, f := range []string{got[i].Key.Cluster, got[i].Key.Machine, got[i].Key.Job} {
			if p := uintptr(unsafe.Pointer(unsafe.StringData(f))); p >= lo && p <= hi {
				t.Fatalf("entry %d's key field %q points into the input", i, f)
			}
		}
	}
}

func TestDecodeRejectsDamage(t *testing.T) {
	entries := testEntries(6, 3, 4)
	for _, layout := range []TailLayout{Prefixed, Fixed(4)} {
		valid, err := AppendEntries(nil, entries, layout)
		if err != nil {
			t.Fatal(err)
		}
		reject := func(name string, buf []byte, count int) {
			t.Helper()
			c := NewCursor(buf)
			got := DecodeEntries(&c, count, layout)
			if c.Done() == nil || (c.Err() != nil && got != nil) {
				t.Errorf("layout %+v, %s: decoded %d entries, err %v", layout, name, len(got), c.Done())
			}
		}
		for n := 0; n < len(valid); n++ {
			reject(fmt.Sprintf("%d-byte prefix", n), valid[:n], len(entries))
		}
		reject("trailing byte", append(append([]byte(nil), valid...), 0), len(entries))
		reject("count too high", valid, len(entries)+1)
		reject("count too low", valid, len(entries)-1)
		reject("negative count", valid, -1)
		reject("count beyond the input", valid, math.MaxInt32)
		noDir := append([]byte(nil), valid...)
		noDir[0] = 0
		reject("empty directory", noDir, len(entries))
		bigDir := append([]byte(nil), valid...)
		bigDir[0] = byte(len(entries) + 1)
		reject("directory larger than the batch", bigDir, len(entries))
	}
}

func TestCursorRemembersFirstFailure(t *testing.T) {
	c := NewCursor([]byte{0x05, 'a', 'b'})
	if s := c.Str(math.MaxInt); s != "" || c.Err() == nil {
		t.Fatalf("Str past the end = %q, err %v", s, c.Err())
	}
	first := c.Err()
	// Every later read is a zero-valued no-op, whatever is asked for.
	if c.Uvarint() != 0 || c.Varint() != 0 || c.U64() != 0 || c.U32() != 0 || c.F64() != 0 ||
		c.Byte() != 0 || c.Str(8) != "" || c.Count(10, 1, "x") != 0 || c.Remaining() != 0 {
		t.Error("reads after a failure returned data")
	}
	c.Failf("later damage")
	if c.Err() != first || c.Done() != first {
		t.Errorf("first failure %v was replaced by %v", first, c.Err())
	}
}

func TestCursorReads(t *testing.T) {
	buf := AppendString(nil, "agent")
	buf = append(buf, 0xAC, 0x02) // uvarint 300
	buf = append(buf, 0x03)       // varint -2
	buf = append(buf, 7, 0, 0, 0) // u32 7
	buf = append(buf, 1)          // byte
	c := NewCursor(buf)
	if s := c.Str(5); s != "agent" {
		t.Errorf("Str = %q", s)
	}
	if v := c.Uvarint(); v != 300 {
		t.Errorf("Uvarint = %d", v)
	}
	if v := c.Varint(); v != -2 {
		t.Errorf("Varint = %d", v)
	}
	if v := c.U32(); v != 7 {
		t.Errorf("U32 = %d", v)
	}
	if c.Remaining() != 1 || c.Done() == nil {
		t.Errorf("one unread byte: Remaining %d, Done %v", c.Remaining(), c.Done())
	}
	if b := c.Byte(); b != 1 || c.Done() != nil {
		t.Errorf("Byte = %d, Done %v", b, c.Done())
	}
}

func TestCursorGuards(t *testing.T) {
	long := NewCursor(AppendString(nil, strings.Repeat("x", 9)))
	if s := long.Str(8); s != "" || long.Err() == nil {
		t.Errorf("Str over its cap = %q, err %v", s, long.Err())
	}
	for _, tc := range []struct {
		name           string
		n              uint64
		max, min, want int
	}{
		{"fits", 4, 10, 2, 4},
		{"over the cap", 11, 10, 0, 0},
		{"cannot fit the bytes", 5, 10, 2, 0},
		{"sizes nothing", 1 << 20, 1 << 30, 0, 1 << 20},
	} {
		c := NewCursor(make([]byte, 8))
		if got := c.Fits(tc.n, tc.max, tc.min, "things"); got != tc.want || (got == 0) != (c.Err() != nil) {
			t.Errorf("%s: Fits = %d (err %v), want %d", tc.name, got, c.Err(), tc.want)
		}
	}
}

// TestAppendUvarintsMatchesUvarint: the tail-run reader is n Uvarint
// calls, at every varint edge binary.Uvarint draws: the same values, the
// same error and the same cursor position.
func TestAppendUvarintsMatchesUvarint(t *testing.T) {
	ff := func(n int) []byte { return bytes.Repeat([]byte{0xFF}, n) }
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	for _, tc := range []struct {
		name string
		buf  []byte
		n    int
	}{
		{"one-byte values, some left unread", []byte{1, 0x7F, 0, 5}, 3},
		{"one-byte values around a two-byte one", []byte{1, 0xAC, 0x02, 0x7F, 9}, 3},
		{"one-byte values then the end", []byte{1, 2}, 3},
		{"eight one-byte values then a two-byte one", []byte{1, 2, 3, 4, 5, 6, 7, 8, 0xAC, 0x02, 9}, 10},
		{"a two-byte value inside eight bytes", []byte{1, 2, 3, 0xAC, 0x02, 6, 7, 8, 9, 10}, 9},
		{"seven values claimed over eight one-byte ones", []byte{1, 2, 3, 4, 5, 6, 7, 8}, 7},
		{"sixteen one-byte values, seventeen claimed", bytes.Repeat([]byte{5}, 16), 17},
		{"nine one-byte values then the end", bytes.Repeat([]byte{0}, 9), 12},
		{"10-byte maximum value", cat([]byte{0xAC, 0x02}, ff(9), []byte{0x01, 7}), 3},
		{"10th byte of 2 overflows", cat([]byte{3}, ff(9), []byte{0x02, 7}), 3},
		{"11 continuation bytes", cat([]byte{3}, bytes.Repeat([]byte{0x80}, 11), []byte{0x01}), 2},
		{"11-byte varint", cat([]byte{3}, bytes.Repeat([]byte{0x80}, 10), []byte{0x01}), 2},
		{"10 continuation bytes then the end", cat([]byte{3}, ff(10)), 2},
		{"truncated mid-varint", []byte{3, 0xAC}, 2},
		{"more values claimed than present", []byte{3, 4}, 5},
		{"zero values", []byte{3}, 0},
		{"a negative count", []byte{3}, -1},
		{"two-byte values back to back", []byte{0xAC, 0x02, 0x80, 0x01, 0xFF, 0x7F}, 3},
		{"two-byte value cut short", []byte{5, 0xAC}, 2},
		{"empty buffer", nil, 1},
	} {
		want := NewCursor(tc.buf)
		var wantVals []uint64
		for range tc.n {
			wantVals = append(wantVals, want.Uvarint())
		}
		got := NewCursor(tc.buf)
		gotVals := got.AppendUvarints([]uint64{99}, tc.n)
		if !slices.Equal(gotVals, append([]uint64{99}, wantVals...)) {
			t.Errorf("%s: values %v, want 99 then %v", tc.name, gotVals, wantVals)
		}
		if got.Err() != want.Err() || got.pos != want.pos {
			t.Errorf("%s: err %v at %d, want %v at %d", tc.name, got.Err(), got.pos, want.Err(), want.pos)
		}
	}
	// A failed cursor stays failed: every value is zero, nothing is consumed.
	c := NewCursor([]byte{0x80})
	c.Uvarint()
	if vals := c.AppendUvarints(nil, 2); !slices.Equal(vals, []uint64{0, 0}) || c.Err() != errTruncated || c.Remaining() != 0 {
		t.Errorf("after a failure: values %v, err %v, %d bytes left", vals, c.Err(), c.Remaining())
	}
}
