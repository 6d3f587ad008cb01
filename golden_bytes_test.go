package sdfm_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"sdfm/internal/controlplane/ckpt"
	"sdfm/internal/controlplane/wire"
	"sdfm/internal/telemetry"
	"sdfm/internal/tracestore"
)

// TestGoldenBytes is the fence around the three byte formats that carry
// telemetry entries. The files under testdata/golden were written by the
// encoders of the commit *before* the formats' column codecs were merged
// into internal/telemetry/colfmt (a fixed-seed fleet trace; see CHANGES.md,
// PR 17) and are never regenerated: each must still decode, and
// re-encoding what was decoded must reproduce the file byte for byte. A
// failure here means bytes on the wire or on disk changed — bump the
// format's Version and keep reading the old one, or undo the change.
func TestGoldenBytes(t *testing.T) {
	for _, tc := range []struct {
		file string
		// reencode decodes the fixture, checks it holds what its name
		// promises, and encodes it again.
		reencode func(t *testing.T, golden []byte) []byte
	}{
		{"report.sdwb", func(t *testing.T, golden []byte) []byte {
			agent, entries, err := wire.DecodeReportBatch(golden)
			if err != nil {
				t.Fatal(err)
			}
			jobs, stale := map[telemetry.JobKey]bool{}, 0
			for i := range entries {
				jobs[entries[i].Key] = true
				if entries[i].VerifyChecksum() != nil {
					stale++
				}
			}
			if len(jobs) < 3 || stale != 1 {
				t.Errorf("report frame holds %d jobs and %d stale checksums, want >= 3 and 1", len(jobs), stale)
			}
			out, err := wire.AppendReportBatch(nil, agent, entries)
			if err != nil {
				t.Fatal(err)
			}
			return out
		}},
		{"trace.sdfmts", func(t *testing.T, golden []byte) []byte {
			r, err := tracestore.NewReader(bytes.NewReader(golden), int64(len(golden)))
			if err != nil {
				t.Fatal(err)
			}
			compressed := 0
			for _, c := range r.Chunks() {
				if c.Compressed {
					compressed++
				}
			}
			if r.NumChunks() < 2 || compressed == 0 || r.Jobs() == nil {
				t.Errorf("store file has %d chunks, %d compressed, footer jobs %v", r.NumChunks(), compressed, r.Jobs())
			}
			var out bytes.Buffer
			w, err := tracestore.NewWriter(&out, r.Meta(), tracestore.WithChunkEntries(r.Chunks()[0].Entries))
			if err != nil {
				t.Fatal(err)
			}
			if err := r.Scan(w.Append); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			if sk := r.Skipped(); sk.Chunks != 0 || sk.Entries != 0 {
				t.Errorf("golden store file read with damage: %+v", sk)
			}
			return out.Bytes()
		}},
		{"checkpoint.sdfmcp", func(t *testing.T, golden []byte) []byte {
			s, err := ckpt.Decode(golden)
			if err != nil {
				t.Fatal(err)
			}
			shardEntries := 0
			for i := range s.Shards {
				shardEntries += len(s.Shards[i].Entries)
			}
			if s.QueuedEntries() == 0 || shardEntries == 0 || len(s.Rounds) == 0 {
				t.Errorf("checkpoint holds %d queued entries, %d shard entries, %d rounds; want some of each",
					s.QueuedEntries(), shardEntries, len(s.Rounds))
			}
			out, err := ckpt.Encode(nil, s)
			if err != nil {
				t.Fatal(err)
			}
			return out
		}},
	} {
		t.Run(tc.file, func(t *testing.T) {
			golden, err := os.ReadFile(filepath.Join("testdata", "golden", tc.file))
			if err != nil {
				t.Fatal(err)
			}
			if got := tc.reencode(t, golden); !bytes.Equal(got, golden) {
				t.Errorf("re-encoding produced %d bytes that differ from the %d-byte golden file", len(got), len(golden))
			}
		})
	}
	if wire.Version != 1 || tracestore.Version != 1 || ckpt.Version != 1 {
		t.Errorf("format versions %d/%d/%d; the golden files are version 1", wire.Version, tracestore.Version, ckpt.Version)
	}
}
