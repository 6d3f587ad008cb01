package ckpt

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"sdfm/internal/core"
	"sdfm/internal/telemetry"
)

// testEntry is a valid, stamped entry over telemetry.DefaultThresholds,
// as every window entry must be.
func testEntry(cluster, machine, job string, ts int64) telemetry.Entry {
	n := len(telemetry.DefaultThresholds)
	e := telemetry.Entry{
		Key:              telemetry.JobKey{Cluster: cluster, Machine: machine, Job: job},
		TimestampSec:     ts,
		IntervalMinutes:  5,
		WSSPages:         1 << 16,
		TotalPages:       1 << 18,
		ColdTails:        make([]uint64, n),
		PromoTails:       make([]uint64, n),
		CompressibleFrac: 0.67,
	}
	for i := range n {
		e.ColdTails[i] = uint64(900 - 40*i)
		e.PromoTails[i] = uint64(40 - 2*i)
	}
	e.Checksum = e.ComputeChecksum()
	return e
}

func testSnapshot() *Snapshot {
	return &Snapshot{
		Generation:   42,
		TelemetrySec: 7200,
		Incumbent:    core.Params{K: 98.5, S: 17 * time.Minute},
		Epoch:        9,
		// Ingest order, not time or job order: the block must keep it.
		Window: []telemetry.Entry{
			testEntry("c0", "m1", "web", 6600),
			testEntry("c0", "m0", "batch", 7200),
			testEntry("c0", "m1", "web", 6900),
		},
		Agents: []Agent{
			{
				ID:      "c0/m0",
				Params:  core.Params{K: 98.5, S: 17 * time.Minute},
				Epoch:   9,
				LastTS:  7200,
				Reports: 24,
				Dropped: 1,
				Queue: []telemetry.Entry{
					testEntry("c0", "m0", "batch", 7500),
					testEntry("c0", "m0", "web", 7500),
				},
			},
			{
				ID:      "c0/m1",
				Params:  core.Params{K: 97, S: 20 * time.Minute},
				Epoch:   8,
				LastTS:  6900,
				Reports: 23,
			},
		},
		Rounds: []Round{
			{
				Round:          1,
				WindowStartSec: 0,
				WindowEndSec:   3600,
				Entries:        12,
				Jobs:           2,
				TunerEvals:     96,
				Candidate:      core.Params{K: 98.5, S: 17 * time.Minute},
				Chosen:         core.Params{K: 98.5, S: 17 * time.Minute},
				Accepted:       true,
				Reason:         "candidate beat incumbent",
				Coverage:       0.19,
				P98Rate:        0.0004,
				GapIntervals:   1,
				Completeness:   0.96,
			},
			{
				Round:          2,
				WindowStartSec: 3600,
				WindowEndSec:   7200,
				Entries:        14,
				Jobs:           2,
				TunerEvals:     96,
				Candidate:      core.Params{K: 99, S: 10 * time.Minute},
				Chosen:         core.Params{K: 98.5, S: 17 * time.Minute},
				RolledBackAt:   "canary",
				Reason:         "stage canary promotion rate above SLO",
				Coverage:       0.21,
				P98Rate:        0.0011,
				GapIntervals:   0,
				Completeness:   1,
				Err:            "",
			},
		},
		Counters: Counters{
			Reports:             47,
			Received:            188,
			Ingested:            185,
			DroppedBackpressure: 1,
			RejectedCorrupt:     1,
			RejectedInvalid:     1,
		},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	want := testSnapshot()
	buf, err := Encode(nil, want)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := Decode(buf)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
	if got.QueuedEntries() != 2 {
		t.Fatalf("QueuedEntries = %d, want 2", got.QueuedEntries())
	}
}

func TestEncodeDeterministic(t *testing.T) {
	s := testSnapshot()
	a, err := Encode(nil, s)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	b, err := Encode(nil, s)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("two encodes of the same snapshot differ")
	}
}

func TestDecodeEmptySnapshot(t *testing.T) {
	want := &Snapshot{Generation: 1, TelemetrySec: -1}
	buf, err := Encode(nil, want)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := Decode(buf)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch: got %+v want %+v", got, want)
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	buf, err := Encode(nil, testSnapshot())
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	for n := 0; n < len(buf); n++ {
		if _, err := Decode(buf[:n]); err == nil {
			t.Fatalf("Decode accepted a %d-byte prefix of a %d-byte checkpoint", n, len(buf))
		} else if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrUnsupportedVersion) {
			t.Fatalf("prefix %d: error %v does not wrap a sentinel", n, err)
		}
	}
}

func TestDecodeRejectsBitFlips(t *testing.T) {
	buf, err := Encode(nil, testSnapshot())
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	// Flipping any bit outside the (unchecksummed) generation field must
	// be caught: magic/version/section-count checks or a section CRC.
	for i := 0; i < len(buf); i++ {
		if i >= 8 && i < 16 {
			continue // generation: mutating it yields a different valid checkpoint
		}
		mut := append([]byte(nil), buf...)
		mut[i] ^= 0x80
		if _, err := Decode(mut); err == nil {
			t.Fatalf("Decode accepted a bit flip at offset %d", i)
		}
	}
}

func TestDecodeRejectsTrailingBytes(t *testing.T) {
	buf, err := Encode(nil, testSnapshot())
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if _, err := Decode(append(buf, 0)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("trailing byte: got %v, want ErrCorrupt", err)
	}
}

// TestDecodeRejectsFutureVersion covers both directions: a layout from
// the future and the retired version 1, which has no second decoder.
func TestDecodeRejectsFutureVersion(t *testing.T) {
	buf, err := Encode(nil, testSnapshot())
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	for _, v := range []byte{0xff, Version - 1} {
		buf[6] = v // version low byte
		if _, err := Decode(buf); !errors.Is(err, ErrUnsupportedVersion) {
			t.Fatalf("version %d: got %v, want ErrUnsupportedVersion", v, err)
		}
	}
}

func TestRoundStringsClamped(t *testing.T) {
	s := &Snapshot{
		Generation: 1,
		Rounds: []Round{{
			Round:  1,
			Reason: strings.Repeat("x", 4*maxStringLen),
			Err:    strings.Repeat("y", maxStringLen+1),
		}},
	}
	buf, err := Encode(nil, s)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := Decode(buf)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if len(got.Rounds[0].Reason) != maxStringLen || len(got.Rounds[0].Err) != maxStringLen {
		t.Fatalf("round strings not clamped: reason=%d err=%d",
			len(got.Rounds[0].Reason), len(got.Rounds[0].Err))
	}
}

func TestWriteRestoreNewest(t *testing.T) {
	dir := t.TempDir()
	for gen := uint64(1); gen <= 3; gen++ {
		s := testSnapshot()
		s.Generation = gen
		if _, err := WriteFile(dir, s); err != nil {
			t.Fatalf("WriteFile gen %d: %v", gen, err)
		}
	}
	s, rep, err := Restore(dir)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if !rep.Restored || s == nil {
		t.Fatal("Restore found nothing in a populated directory")
	}
	if s.Generation != 3 || rep.Generation != 3 || rep.File != FileName(3) {
		t.Fatalf("restored gen %d from %q, want gen 3 from %q", s.Generation, rep.File, FileName(3))
	}
	if len(rep.Skipped) != 0 {
		t.Fatalf("clean directory reported skips: %v", rep.Skipped)
	}
}

func TestRestoreFallsBackPastTornNewest(t *testing.T) {
	dir := t.TempDir()
	for gen := uint64(1); gen <= 3; gen++ {
		s := testSnapshot()
		s.Generation = gen
		if _, err := WriteFile(dir, s); err != nil {
			t.Fatalf("WriteFile gen %d: %v", gen, err)
		}
	}
	// Tear the newest file (simulated crash mid-write after rename — or a
	// disk that lied about durability) and corrupt the one before it.
	newest := filepath.Join(dir, FileName(3))
	buf, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newest, buf[:len(buf)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	mid := filepath.Join(dir, FileName(2))
	buf, err = os.ReadFile(mid)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)-1] ^= 0xff
	if err := os.WriteFile(mid, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	// And leave a stray temporary behind.
	if err := os.WriteFile(filepath.Join(dir, FileName(4)+tmpSuffix), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}

	s, rep, err := Restore(dir)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if !rep.Restored || s.Generation != 1 {
		t.Fatalf("Restore = gen %d (restored=%v), want fallback to gen 1", rep.Generation, rep.Restored)
	}
	if len(rep.Skipped) != 3 {
		t.Fatalf("Skipped = %v, want the temporary plus two damaged generations", rep.Skipped)
	}
	for _, sk := range rep.Skipped {
		if sk.Err == nil {
			t.Fatalf("skip %q carries no error", sk.Name)
		}
	}
}

func TestRestoreFreshBoot(t *testing.T) {
	s, rep, err := Restore(filepath.Join(t.TempDir(), "does-not-exist"))
	if err != nil || s != nil || rep.Restored {
		t.Fatalf("missing dir: s=%v rep=%+v err=%v, want fresh boot", s, rep, err)
	}
	s, rep, err = Restore(t.TempDir())
	if err != nil || s != nil || rep.Restored {
		t.Fatalf("empty dir: s=%v rep=%+v err=%v, want fresh boot", s, rep, err)
	}
}

func TestPrune(t *testing.T) {
	dir := t.TempDir()
	for gen := uint64(1); gen <= 5; gen++ {
		s := testSnapshot()
		s.Generation = gen
		if _, err := WriteFile(dir, s); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, FileName(6)+tmpSuffix), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	n, err := Prune(dir, 2)
	if err != nil {
		t.Fatalf("Prune: %v", err)
	}
	if n != 4 {
		t.Fatalf("Prune deleted %d files, want 4 (3 old generations + 1 temporary)", n)
	}
	names, tmps, err := listDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(tmps) != 0 {
		t.Fatalf("temporaries survived prune: %v", tmps)
	}
	if len(names) != 2 || names[0] != FileName(4) || names[1] != FileName(5) {
		t.Fatalf("surviving files %v, want generations 4 and 5", names)
	}
	// Pruning a missing directory is a no-op, not an error.
	if n, err := Prune(filepath.Join(dir, "nope"), 2); n != 0 || err != nil {
		t.Fatalf("Prune(missing) = %d, %v", n, err)
	}
}
