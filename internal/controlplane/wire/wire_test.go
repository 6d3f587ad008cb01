package wire

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"strings"
	"testing"
	"time"

	"sdfm/internal/fleet"
	"sdfm/internal/telemetry"
	"sdfm/internal/telemetry/colfmt"
)

func testEntries(t testing.TB) []telemetry.Entry {
	t.Helper()
	tr, err := fleet.Generate(fleet.Config{
		Clusters:           1,
		MachinesPerCluster: 2,
		JobsPerMachine:     3,
		Duration:           time.Hour,
		Interval:           5 * time.Minute,
		Seed:               21,
	})
	if err != nil {
		t.Fatalf("fleet.Generate: %v", err)
	}
	if len(tr.Entries) < 8 {
		t.Fatalf("trace has %d entries, want >= 8", len(tr.Entries))
	}
	return tr.Entries
}

func entriesEqual(a, b telemetry.Entry) bool {
	if a.Key != b.Key || a.TimestampSec != b.TimestampSec ||
		a.WSSPages != b.WSSPages || a.TotalPages != b.TotalPages ||
		a.Checksum != b.Checksum ||
		math.Float64bits(a.IntervalMinutes) != math.Float64bits(b.IntervalMinutes) ||
		math.Float64bits(a.CompressibleFrac) != math.Float64bits(b.CompressibleFrac) ||
		len(a.ColdTails) != len(b.ColdTails) || len(a.PromoTails) != len(b.PromoTails) {
		return false
	}
	for i := range a.ColdTails {
		if a.ColdTails[i] != b.ColdTails[i] {
			return false
		}
	}
	for i := range a.PromoTails {
		if a.PromoTails[i] != b.PromoTails[i] {
			return false
		}
	}
	return true
}

func TestRoundTrip(t *testing.T) {
	entries := testEntries(t)
	frame, err := AppendReportBatch(nil, "cluster-00/m0000", entries)
	if err != nil {
		t.Fatalf("AppendReportBatch: %v", err)
	}
	id, got, err := DecodeReportBatch(frame)
	if err != nil {
		t.Fatalf("DecodeReportBatch: %v", err)
	}
	if id != "cluster-00/m0000" {
		t.Errorf("agent id = %q", id)
	}
	if len(got) != len(entries) {
		t.Fatalf("decoded %d entries, want %d", len(got), len(entries))
	}
	for i := range entries {
		if !entriesEqual(entries[i], got[i]) {
			t.Errorf("entry %d round-trips to\n%+v, want\n%+v", i, got[i], entries[i])
		}
	}
	// Entry checksums survive the wire untouched: controller-side
	// validation sees exactly what the agent recorded.
	for i := range got {
		if err := got[i].VerifyChecksum(); err != nil {
			t.Errorf("decoded entry %d fails checksum: %v", i, err)
		}
	}
}

func TestRoundTripEmptyBatch(t *testing.T) {
	frame, err := AppendReportBatch(nil, "a", nil)
	if err != nil {
		t.Fatalf("AppendReportBatch: %v", err)
	}
	id, got, err := DecodeReportBatch(frame)
	if err != nil {
		t.Fatalf("DecodeReportBatch: %v", err)
	}
	if id != "a" || len(got) != 0 {
		t.Errorf("empty batch decodes to id=%q entries=%d", id, len(got))
	}
}

// TestDamagedEntriesSurviveTheWire pins the design decision that the
// frame CRC protects the *transport*, not the entries: an entry whose
// content was damaged before encoding (stale FNV checksum, non-monotone
// tails) must round-trip bit-exactly so the controller's Tick validation
// rejects it with accounting, exactly as if it had been recorded there.
func TestDamagedEntriesSurviveTheWire(t *testing.T) {
	entries := testEntries(t)[:4]
	damaged := make([]telemetry.Entry, len(entries))
	copy(damaged, entries)
	damaged[1].ColdTails = append([]uint64(nil), damaged[1].ColdTails...)
	damaged[1].ColdTails[0] ^= 0xdeadbeef     // checksum now stale
	damaged[2].PromoTails = []uint64{1, 5, 2} // non-monotone
	frame, err := AppendReportBatch(nil, "a", damaged)
	if err != nil {
		t.Fatalf("AppendReportBatch: %v", err)
	}
	_, got, err := DecodeReportBatch(frame)
	if err != nil {
		t.Fatalf("DecodeReportBatch: %v", err)
	}
	if err := got[1].VerifyChecksum(); err == nil {
		t.Error("stale checksum laundered by the wire format")
	}
	if got[2].PromoTails[0] != 1 || got[2].PromoTails[1] != 5 || got[2].PromoTails[2] != 2 {
		t.Errorf("non-monotone tails altered in transit: %v", got[2].PromoTails)
	}
}

func TestDecodeRejectsDamage(t *testing.T) {
	entries := testEntries(t)[:6]
	frame, err := AppendReportBatch(nil, "cluster-00/m0001", entries)
	if err != nil {
		t.Fatalf("AppendReportBatch: %v", err)
	}

	cases := map[string][]byte{
		"empty":     {},
		"short":     frame[:headerMin-1],
		"truncated": frame[:len(frame)/2],
		"bad magic": append([]byte("XXXX"), frame[4:]...),
	}
	flipped := append([]byte(nil), frame...)
	flipped[len(flipped)/2] ^= 0x40
	cases["flipped payload bit"] = flipped
	badCRC := append([]byte(nil), frame...)
	badCRC[len(badCRC)-1] ^= 0xff
	cases["flipped CRC"] = badCRC
	trailing := append(append([]byte(nil), frame[:len(frame)-4]...), 0, 0, 0, 0, 0, 0, 0, 0)
	binary.LittleEndian.PutUint32(trailing[len(trailing)-4:],
		crcOf(trailing[:len(trailing)-4]))
	cases["trailing bytes"] = trailing

	for name, buf := range cases {
		if _, _, err := DecodeReportBatch(buf); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}

	future := append([]byte(nil), frame...)
	binary.LittleEndian.PutUint16(future[4:], Version+1)
	binary.LittleEndian.PutUint32(future[len(future)-4:], crcOf(future[:len(future)-4]))
	if _, _, err := DecodeReportBatch(future); !errors.Is(err, ErrUnsupportedVersion) {
		t.Errorf("future version: err = %v, want ErrUnsupportedVersion", err)
	}

	// An oversized claimed entry count must error before allocating.
	lies := append([]byte(nil), frame...)
	idLen := 1 + len("cluster-00/m0001")
	binary.LittleEndian.PutUint32(lies[6+idLen:], 1<<30)
	binary.LittleEndian.PutUint32(lies[len(lies)-4:], crcOf(lies[:len(lies)-4]))
	if _, _, err := DecodeReportBatch(lies); !errors.Is(err, ErrCorrupt) {
		t.Errorf("oversized count: err = %v, want ErrCorrupt", err)
	}
}

func crcOf(b []byte) uint32 {
	return crc32.Checksum(b, castagnoli)
}

func TestEncoderLimits(t *testing.T) {
	if _, err := AppendReportBatch(nil, strings.Repeat("x", maxAgentIDLen+1), nil); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversized agent id: err = %v, want ErrTooLarge", err)
	}
	e := telemetry.Entry{ColdTails: make([]uint64, colfmt.MaxTails+1)}
	if _, err := AppendReportBatch(nil, "a", []telemetry.Entry{e}); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversized tails: err = %v, want ErrTooLarge", err)
	}
}

// TestAppendReportBatchReuseIsAllocationFree pins the hot encode path:
// once the destination buffer has grown to the batch's size, re-encoding
// into it allocates nothing.
func TestAppendReportBatchReuseIsAllocationFree(t *testing.T) {
	entries := testEntries(t)
	buf, err := AppendReportBatch(nil, "cluster-00/m0000", entries)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if buf, err = AppendReportBatch(buf[:0], "cluster-00/m0000", entries); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("re-encode into a warm buffer allocates %.1f times per call, want 0", allocs)
	}
}

// TestDecodedEntriesNotAliased overwrites a frame after decoding it: the
// agent id and entries must be unchanged, because the server decodes out
// of a pooled buffer the next report reuses.
func TestDecodedEntriesNotAliased(t *testing.T) {
	entries := testEntries(t)
	frame, err := AppendReportBatch(nil, "cluster-00/m0000", entries)
	if err != nil {
		t.Fatal(err)
	}
	id, got, err := DecodeReportBatch(frame)
	if err != nil {
		t.Fatal(err)
	}
	for i := range frame {
		frame[i] = 0xA5
	}
	if id != "cluster-00/m0000" {
		t.Errorf("agent id reads %q after the frame was overwritten", id)
	}
	for i := range entries {
		if !entriesEqual(entries[i], got[i]) {
			t.Fatalf("entry %d reads\n%+v after the frame was overwritten, want\n%+v", i, got[i], entries[i])
		}
	}
}

// TestDecodeAllocs pins a frame's decode: the agent id, and the entry
// block's four allocations (keys, one string of their bytes, entries,
// tails), whatever the frame's job count; decoded over a warm entry
// array, the entries cost none.
func TestDecodeAllocs(t *testing.T) {
	entries := testEntries(t)
	frame, err := AppendReportBatch(nil, "cluster-00/m0000", entries)
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(50, func() { DecodeReportBatch(frame) }); allocs > 5 {
		t.Errorf("decoding a 6-job frame allocates %.1f times, want at most 5", allocs)
	}
	warm := make([]telemetry.Entry, len(entries))
	if allocs := testing.AllocsPerRun(50, func() { DecodeReportBatchInto(warm, frame) }); allocs > 4 {
		t.Errorf("decoding a 6-job frame over a warm array allocates %.1f times, want at most 4", allocs)
	}
	_, got, err := DecodeReportBatchInto(warm, frame)
	if err != nil || &got[0] != &warm[0] {
		t.Fatalf("decode into a warm array: %v, array reused %v", err, err == nil && &got[0] == &warm[0])
	}
	for i := range entries {
		if !entriesEqual(entries[i], got[i]) {
			t.Fatalf("entry %d decoded over a warm array reads\n%+v, want\n%+v", i, got[i], entries[i])
		}
	}
}
