package sdfm_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"sdfm/internal/controlplane"
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
// format's Version (keep a reader for the old one only while something
// still writes or holds such files), or undo the change.
//
// The checkpoint layout took that path once: checkpoint.sdfmcp is the
// version-1 fixture, kept to pin that it is refused and skipped, and
// checkpoint.v2.sdfmcp holds the same state in the current layout (the
// v1 fixture decoded by the last v1 decoder, its shard entries in shard
// order as the window, the job directory dropped; CHANGES.md, PR 19).
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
		{"checkpoint.v2.sdfmcp", func(t *testing.T, golden []byte) []byte {
			s, err := ckpt.Decode(golden)
			if err != nil {
				t.Fatal(err)
			}
			if s.QueuedEntries() == 0 || len(s.Window) == 0 || len(s.Rounds) == 0 {
				t.Errorf("checkpoint holds %d queued entries, %d window entries, %d rounds; want some of each",
					s.QueuedEntries(), len(s.Window), len(s.Rounds))
			}
			out, err := ckpt.Encode(nil, s)
			if err != nil {
				t.Fatal(err)
			}
			return out
		}},
		{"checkpoint.sdfmcp", func(t *testing.T, golden []byte) []byte {
			if _, err := ckpt.Decode(golden); !errors.Is(err, ckpt.ErrUnsupportedVersion) {
				t.Errorf("Decode of the version-1 fixture: %v, want ErrUnsupportedVersion", err)
			}
			// A daemon that finds only such a file boots fresh and says so.
			dir := t.TempDir()
			name := ckpt.FileName(7)
			if err := os.WriteFile(filepath.Join(dir, name), golden, 0o644); err != nil {
				t.Fatal(err)
			}
			c, rep, err := controlplane.Restore(controlplane.Config{CheckpointDir: dir})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if rep.Restored || len(rep.Skipped) != 1 || rep.Skipped[0].Name != name ||
				!errors.Is(rep.Skipped[0].Err, ckpt.ErrUnsupportedVersion) {
				t.Errorf("Restore over a version-1 file: %+v, want a fresh boot with the file skipped as unsupported", rep)
			}
			if st := c.Status(); len(st.Agents) != 0 || st.Rounds != 0 || st.Ingest != (controlplane.IngestStats{}) {
				t.Errorf("fresh boot carries state: %+v", st)
			}
			return golden // nothing to re-encode: the fixture only has to stay refused
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
	if wire.Version != 1 || tracestore.Version != 1 || ckpt.Version != 2 {
		t.Errorf("format versions %d/%d/%d; the golden files are wire 1 / tracestore 1 / ckpt 2",
			wire.Version, tracestore.Version, ckpt.Version)
	}
}
