package tracestore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	"sdfm/internal/core"
	"sdfm/internal/fault"
	"sdfm/internal/fleet"
	"sdfm/internal/histogram"
	"sdfm/internal/model"
	"sdfm/internal/telemetry"
	"sdfm/internal/telemetry/colfmt"
	"sdfm/internal/tuner"
)

// testTrace synthesizes a small multi-job fleet trace.
func testTrace(t testing.TB, hours float64) *telemetry.Trace {
	t.Helper()
	tr, err := fleet.Generate(fleet.Config{
		Clusters: 2, MachinesPerCluster: 3, JobsPerMachine: 2,
		Duration: time.Duration(hours * float64(time.Hour)), Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// writeStoreFile writes tr as a store file under t.TempDir.
func writeStoreFile(t testing.TB, tr *telemetry.Trace, opts ...WriterOption) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.store")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteTrace(f, tr, opts...); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRoundTrip(t *testing.T) {
	tr := testTrace(t, 6)
	// Small chunks so the file has many of them.
	path := writeStoreFile(t, tr, WithChunkEntries(100))

	h, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if h.NumEntries() != tr.Len() {
		t.Fatalf("entries = %d, want %d", h.NumEntries(), tr.Len())
	}
	if len(h.Jobs()) != len(tr.Jobs()) {
		t.Fatalf("jobs = %d, want %d", len(h.Jobs()), len(tr.Jobs()))
	}
	got, err := h.ReadTrace()
	if err != nil {
		t.Fatal(err)
	}
	if got.ScanPeriodSeconds != tr.ScanPeriodSeconds || !reflect.DeepEqual(got.Thresholds, tr.Thresholds) {
		t.Fatal("metadata did not round-trip")
	}
	if len(got.Entries) != len(tr.Entries) {
		t.Fatalf("read %d entries, wrote %d", len(got.Entries), len(tr.Entries))
	}
	for i := range tr.Entries {
		want := tr.Entries[i]
		if want.Checksum == 0 {
			want.Checksum = want.ComputeChecksum()
		}
		g := got.Entries[i]
		if g.Key != want.Key || g.TimestampSec != want.TimestampSec ||
			g.IntervalMinutes != want.IntervalMinutes || g.WSSPages != want.WSSPages ||
			g.TotalPages != want.TotalPages || g.CompressibleFrac != want.CompressibleFrac ||
			g.Checksum != want.Checksum ||
			!reflect.DeepEqual(g.ColdTails, want.ColdTails) ||
			!reflect.DeepEqual(g.PromoTails, want.PromoTails) {
			t.Fatalf("entry %d did not round-trip:\n got %+v\nwant %+v", i, g, want)
		}
	}
	if sk := h.Skipped(); sk.Chunks != 0 || sk.Entries != 0 {
		t.Fatalf("clean file reported damage: %+v", sk)
	}
}

// TestReplayEquivalence is the satellite acceptance check: compiling a
// store file out-of-core must give bit-identical model results to the
// in-memory trace it was written from.
func TestReplayEquivalence(t *testing.T) {
	tr := testTrace(t, 12)
	path := writeStoreFile(t, tr, WithChunkEntries(257)) // odd size: chunks split mid-interval

	cfg := model.Config{Params: core.DefaultParams, SLO: core.DefaultSLO}
	want, err := model.Run(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}

	h, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	ct, err := h.Compile()
	if err != nil {
		t.Fatal(err)
	}
	got, err := ct.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("out-of-core replay diverged:\n got %+v\nwant %+v", got, want)
	}

	// And via the generic Compile path on an in-memory format.
	ct2 := model.Compile(tr)
	got2, err := ct2.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got2, want) {
		t.Fatalf("compiled replay diverged from reference")
	}
}

// TestOpenAutoDetectsFormats pins that the store is the only trace file
// format: Open takes a store file and refuses the retired gob and JSON
// encodings — like any other file without the store magic — with an
// error wrapping ErrCorrupt instead of guessing at them.
func TestOpenAutoDetectsFormats(t *testing.T) {
	tr := testTrace(t, 3)
	h, err := Open(writeStoreFile(t, tr))
	if err != nil {
		t.Fatal(err)
	}
	if h.NumEntries() != tr.Len() {
		t.Errorf("store file: %d entries, want %d", h.NumEntries(), tr.Len())
	}
	h.Close()

	for name, content := range map[string]string{
		"gob magic":    "SDFMGOB\x01\x3f\xff\x81\x03\x01\x01\x05Trace",
		"JSON":         `{"ScanPeriodSeconds":120,"Thresholds":[1,2],"Entries":[]}`,
		"empty":        "",
		"short header": headerMagic,
	} {
		path := filepath.Join(t.TempDir(), "other")
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		if h, err := Open(path); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s file: Open = %v, %v; want an error wrapping ErrCorrupt", name, h, err)
		}
	}
}

// TestCorruptChunkRecovery is the satellite recovery drill: flip bytes
// inside one chunk with the fault package's deterministic corruptor and
// assert the reader skips exactly that chunk, accounts the damage, the
// model sees the hole as gap intervals, and replay still succeeds.
func TestCorruptChunkRecovery(t *testing.T) {
	tr := testTrace(t, 6)
	path := writeStoreFile(t, tr, WithChunkEntries(128))

	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Locate the chunks from a clean open so the flips land mid-chunk,
	// not in the header or footer.
	clean, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	chunks := clean.Chunks()
	clean.Close()
	if len(chunks) < 3 {
		t.Fatalf("want >= 3 chunks, got %d", len(chunks))
	}
	victim := chunks[1]
	region := buf[victim.Offset+chunkHeaderSize : victim.Offset+chunkHeaderSize+int64(victim.StoredLen)]
	if n := fault.FlipBytes(region, 7, 3); len(n) != 3 {
		t.Fatalf("FlipBytes flipped %d bytes", len(n))
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}

	h, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	ct, err := h.Compile() // must not fail: damage degrades, not dies
	if err != nil {
		t.Fatalf("compile over corrupt chunk: %v", err)
	}
	sk := h.Skipped()
	if sk.Chunks != 1 {
		t.Fatalf("skipped %d chunks, want exactly the corrupted one; ranges: %+v", sk.Chunks, sk.Ranges)
	}
	if sk.Entries != victim.Entries {
		t.Errorf("skipped %d entries, want %d", sk.Entries, victim.Entries)
	}
	if len(sk.Ranges) != 1 || sk.Ranges[0].Chunk != 1 ||
		sk.Ranges[0].MinTS != victim.MinTS || sk.Ranges[0].MaxTS != victim.MaxTS {
		t.Errorf("skipped range does not identify the chunk: %+v", sk.Ranges)
	}

	// Completeness accounting: the reference replay on the full trace has
	// some gap count; the holes the skipped chunk leaves must add to it.
	cfg := model.Config{Params: core.DefaultParams, SLO: core.DefaultSLO}
	full, err := model.Run(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	damaged, err := ct.Run(cfg)
	if err != nil {
		t.Fatalf("replay over corrupt chunk: %v", err)
	}
	if damaged.GapIntervals <= full.GapIntervals {
		t.Errorf("gap intervals %d not above clean replay's %d — the hole went unaccounted",
			damaged.GapIntervals, full.GapIntervals)
	}
	if damaged.Completeness >= full.Completeness {
		t.Errorf("completeness %.4f not below clean replay's %.4f", damaged.Completeness, full.Completeness)
	}
	totalIntervals := func(r model.FleetResult) int {
		n := 0
		for _, j := range r.Jobs {
			n += j.Intervals
		}
		return n
	}
	if got, want := totalIntervals(damaged), totalIntervals(full)-victim.Entries; got != want {
		t.Errorf("replayed %d intervals, want %d (full minus the %d skipped)", got, want, victim.Entries)
	}
}

func TestFooterLossRescans(t *testing.T) {
	tr := testTrace(t, 4)
	path := writeStoreFile(t, tr, WithChunkEntries(100))
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Destroy the tail magic: the footer is unlocatable.
	copy(buf[len(buf)-8:], "XXXXXXXX")
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}

	h, err := Open(path)
	if err != nil {
		t.Fatalf("open with destroyed footer: %v", err)
	}
	defer h.Close()
	// The sequential rescan must find every chunk; only the trailing
	// garbage (the ex-footer) is unreadable.
	got, err := h.ReadTrace()
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Entries) != tr.Len() {
		t.Fatalf("rescan recovered %d entries, want %d", len(got.Entries), tr.Len())
	}
}

// TestCompiledFileSlicesLikeInMemoryTrace: rollout rings slice the
// compiled form, so a file compiled out-of-core must slice — and health-
// check ring by ring — exactly as the same trace compiled from memory.
func TestCompiledFileSlicesLikeInMemoryTrace(t *testing.T) {
	tr := testTrace(t, 6)
	path := writeStoreFile(t, tr, WithChunkEntries(100))
	h, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	ct, err := h.Compile()
	if err != nil {
		t.Fatal(err)
	}

	minTS, maxTS := h.TimeBounds()
	if lo, hi := ct.TimeBounds(); lo != minTS || hi != maxTS {
		t.Fatalf("compiled TimeBounds() = (%d, %d), footer index says (%d, %d)", lo, hi, minTS, maxTS)
	}
	lo := minTS + (maxTS-minTS)/3
	hi := minTS + 2*(maxTS-minTS)/3
	want := 0
	for _, e := range tr.Entries {
		if e.TimestampSec >= lo && e.TimestampSec < hi {
			want++
		}
	}
	if got := ct.Slice(lo, hi, nil).Intervals(); got != want {
		t.Fatalf("slice [%d, %d) holds %d intervals, the trace has %d entries there", lo, hi, got, want)
	}

	cfg := model.Config{SLO: core.DefaultSLO}
	stages := tuner.DefaultRolloutStages
	fromFile := tuner.CompiledStageObjective(ct, cfg, len(stages))
	fromMemory := tuner.CompiledStageObjective(model.Compile(tr), cfg, len(stages))
	for idx, st := range stages {
		got, err := fromFile(core.DefaultParams, st, idx)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fromMemory(core.DefaultParams, st, idx)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("ring %q: file-compiled health check %v, in-memory %v", st.Name, got, want)
		}
	}
}

// TestStreamingIngest drives the full streaming path: a stream collector
// exporting straight into a Writer, no in-memory trace anywhere.
func TestStreamingIngest(t *testing.T) {
	tr := testTrace(t, 3)

	var buf bytes.Buffer
	w, err := NewWriter(&buf, MetaOf(telemetry.NewTrace()), WithChunkEntries(64))
	if err != nil {
		t.Fatal(err)
	}
	if err := fleet.GenerateTo(fleet.Config{
		Clusters: 2, MachinesPerCluster: 3, JobsPerMachine: 2,
		Duration: 3 * time.Hour, Seed: 42,
	}, w); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	if r.NumEntries() != tr.Len() {
		t.Fatalf("streamed %d entries, batch path has %d", r.NumEntries(), tr.Len())
	}
	i := 0
	err = r.Scan(func(e telemetry.Entry) error {
		want := tr.Entries[i]
		if want.Checksum == 0 {
			want.Checksum = want.ComputeChecksum()
		}
		if e.Key != want.Key || e.TimestampSec != want.TimestampSec || e.Checksum != want.Checksum {
			t.Fatalf("entry %d: streamed %v@%d, batch %v@%d", i, e.Key, e.TimestampSec, want.Key, want.TimestampSec)
		}
		i++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCollectorToWriter plugs a Writer in as a stream collector's export
// sink — the node-agent ingest topology: histograms in, chunks on disk
// out, no in-memory trace in between.
func TestCollectorToWriter(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, MetaOf(telemetry.NewTrace()), WithChunkEntries(2))
	if err != nil {
		t.Fatal(err)
	}
	c := telemetry.NewCollector(w)
	key := telemetry.JobKey{Cluster: "c", Machine: "m", Job: "j"}

	census := histogram.New(histogram.DefaultScanPeriod)
	census.Add(0, 70)
	census.Add(5, 30)
	for i := 1; i <= 5; i++ {
		promo := histogram.New(histogram.DefaultScanPeriod)
		promo.Add(5, uint64(10*i)) // interval i promoted 10·i pages
		if err := c.Record(key, time.Duration(i)*5*time.Minute, 5, promo, census, 100); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	if r.NumEntries() != 5 {
		t.Fatalf("sink received %d entries, want 5", r.NumEntries())
	}
	// Each interval's promotions survive the round trip.
	i := 1
	err = r.Scan(func(e telemetry.Entry) error {
		if want := uint64(10 * i); e.PromoTails[0] != want {
			t.Fatalf("interval %d promotions %d, want %d", i, e.PromoTails[0], want)
		}
		i++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestEmptyFile(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, MetaOf(telemetry.NewTrace()))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatalf("empty store file unreadable: %v", err)
	}
	if r.NumEntries() != 0 || r.NumChunks() != 0 {
		t.Fatalf("empty file has %d entries in %d chunks", r.NumEntries(), r.NumChunks())
	}
	if err := r.Scan(func(telemetry.Entry) error { t.Fatal("entry from empty file"); return nil }); err != nil {
		t.Fatal(err)
	}
}

func TestVersionRejected(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, MetaOf(telemetry.NewTrace()))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	b[6] = 99 // version field
	_, err = NewReader(bytes.NewReader(b), int64(len(b)))
	if !errors.Is(err, ErrUnsupportedVersion) {
		t.Fatalf("version 99 error = %v, want ErrUnsupportedVersion", err)
	}
}

func TestVerifyReportsWithoutMutating(t *testing.T) {
	tr := testTrace(t, 4)
	path := writeStoreFile(t, tr, WithChunkEntries(100))
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	h, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	chunks := h.Chunks()
	h.Close()
	victim := chunks[0]
	buf[victim.Offset+chunkHeaderSize+int64(victim.StoredLen)/2] ^= 0xFF
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}

	h, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	sk, entries, err := h.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if sk.Chunks != 1 || sk.Entries != victim.Entries {
		t.Fatalf("verify report %+v, want 1 chunk / %d entries", sk, victim.Entries)
	}
	if want := tr.Len() - victim.Entries; entries != want {
		t.Fatalf("verify read %d entries, want %d", entries, want)
	}
	// Verify must not pollute the cumulative scan accounting.
	if cum := h.Skipped(); cum.Chunks != 0 {
		t.Fatalf("Verify leaked into cumulative damage: %+v", cum)
	}
}

func TestFlipBytesDeterministic(t *testing.T) {
	a := bytes.Repeat([]byte{0xAA}, 4096)
	b := bytes.Repeat([]byte{0xAA}, 4096)
	offA := fault.FlipBytes(a, 99, 8)
	offB := fault.FlipBytes(b, 99, 8)
	if !reflect.DeepEqual(offA, offB) || !bytes.Equal(a, b) {
		t.Fatal("FlipBytes not deterministic for equal seeds")
	}
	c := bytes.Repeat([]byte{0xAA}, 4096)
	fault.FlipBytes(c, 100, 8)
	if bytes.Equal(a, c) {
		t.Fatal("different seeds flipped identical bytes")
	}
	for _, off := range offA {
		if a[off] == 0xAA {
			t.Fatalf("offset %d reported flipped but unchanged", off)
		}
	}
	if fault.FlipBytes(nil, 1, 3) != nil {
		t.Fatal("FlipBytes on empty buffer should be a no-op")
	}
}

// TestTamperedEntrySkippedNotReplayed pins the per-entry integrity check
// behind the chunk CRC: an entry altered *before* its chunk was sealed —
// so the chunk CRC is consistent and only the entry's own checksum is
// stale — is detected, skipped and counted, never replayed. So is an entry
// sealed with no checksum at all, which no writer produces.
func TestTamperedEntrySkippedNotReplayed(t *testing.T) {
	tr := testTrace(t, 1)
	entries := append([]telemetry.Entry(nil), tr.Entries[:8]...)
	tampered := entries[3]
	entries[3].WSSPages += 99 // checksum now stale
	unstamped := entries[5]
	entries[5].Checksum = 0

	file, index := handSealed(t, MetaOf(tr), entries)
	file = append(file, encodeFooter(footer{Chunks: index})...)

	r, err := NewReader(bytes.NewReader(file), int64(len(file)))
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	err = r.Scan(func(e telemetry.Entry) error {
		for _, bad := range []telemetry.Entry{tampered, unstamped} {
			if e.Key == bad.Key && e.TimestampSec == bad.TimestampSec {
				t.Errorf("damaged entry %s@%d was replayed", e.Key, e.TimestampSec)
			}
		}
		got++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != len(entries)-2 {
		t.Errorf("scan yielded %d entries, want %d", got, len(entries)-2)
	}
	if sk := r.Skipped(); sk.Chunks != 0 || sk.Entries != 2 || len(sk.Ranges) != 1 {
		t.Errorf("skipped = %+v, want exactly the two damaged entries inside a healthy chunk", sk)
	}
}

// handSealed renders a store file's header and one uncompressed chunk
// per batch with a matching CRC, writing each entry exactly as given: a
// stale or unset checksum stays so, which no Writer produces. It returns
// the bytes and the chunks' index records for the caller's footer.
func handSealed(t testing.TB, meta Meta, batches ...[]telemetry.Entry) ([]byte, []chunkInfo) {
	t.Helper()
	file := encodeHeader(meta)
	var index []chunkInfo
	for _, entries := range batches {
		raw, err := colfmt.AppendEntries(nil, entries, colfmt.Fixed(len(meta.Thresholds)))
		if err != nil {
			t.Fatal(err)
		}
		ci := chunkInfo{
			Offset: int64(len(file)), Entries: len(entries), RawLen: len(raw), StoredLen: len(raw),
			MinTS: entries[0].TimestampSec, MaxTS: entries[len(entries)-1].TimestampSec,
		}
		hdr := encodeChunkHeader(ci)
		binary.LittleEndian.PutUint32(hdr[chunkHeaderSize-4:], chunkCRC(hdr, raw))
		file = append(append(file, hdr...), raw...)
		index = append(index, ci)
	}
	return file, index
}

// TestHostileChunkAllocationBound hands the chunk decoder a payload whose
// header-level claims pass (24 bytes per entry are present) but whose
// tail columns — 100,000 entries x 255 thresholds x 2 — cannot possibly
// fit: it must be refused before anything is sized by the claim.
func TestHostileChunkAllocationBound(t *testing.T) {
	raw := make([]byte, 100000*minEntryBytes)
	raw[0] = 1 // one-job directory of empty strings, then all-zero columns
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := decodeChunkPayload(raw, 100000, 255)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 2*uint64(len(raw)) {
		t.Errorf("decoder allocated %d bytes refusing a %d-byte payload (%.0fx)",
			grew, len(raw), float64(grew)/float64(len(raw)))
	}
}
