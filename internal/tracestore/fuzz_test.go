package tracestore

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"reflect"
	"slices"
	"testing"
	"time"

	"sdfm/internal/fleet"
	"sdfm/internal/telemetry"
)

// FuzzDecodeFooter fuzzes the footer parser, which reads bytes straight
// off the end of the file: any input either decodes or returns an error —
// never a panic, never an allocation sized by a lying count. (The chunk
// payload decoder is fuzzed where it lives: colfmt's FuzzDecodeChunk.)
func FuzzDecodeFooter(f *testing.F) {
	valid := encodeFooter(footer{
		Jobs: []telemetry.JobKey{{Cluster: "c", Machine: "m", Job: "j"}},
		Chunks: []chunkInfo{{
			Offset: 64, StoredLen: 100, RawLen: 120, Entries: 4,
			MinTS: 300, MaxTS: 900, Compressed: true, Jobs: []int{0},
		}},
	})
	f.Add(valid[:len(valid)-tailSize]) // the body, as loadFooter slices it
	f.Add([]byte{})
	f.Add([]byte{0x01, 0x00})
	f.Fuzz(func(t *testing.T, body []byte) {
		f, err := decodeFooter(body, 64) // the seed record's chunk starts right after the header
		if err != nil {
			return
		}
		for i, ci := range f.Chunks {
			for _, j := range ci.Jobs {
				if j < 0 || j >= len(f.Jobs) {
					t.Fatalf("chunk %d decoded with job index %d outside directory of %d", i, j, len(f.Jobs))
				}
			}
		}
	})
}

// FuzzScanFooter puts a fuzzed footer body, with a valid CRC and tail,
// behind the chunks of a real file: whatever the footer claims, opening
// and scanning the file must return, not panic, and a scan with four
// decoders must yield what a scan with one does.
func FuzzScanFooter(f *testing.F) {
	// Two jobs in three chunks keep the footer, and so the seeds the
	// engine minimizes byte by byte, near a hundred bytes.
	tr, err := fleet.Generate(fleet.Config{Clusters: 1, MachinesPerCluster: 1, JobsPerMachine: 2, Duration: time.Hour, Seed: 42})
	if err != nil {
		f.Fatal(err)
	}
	file := storeBytes(f, tr, 8)
	r, err := NewReader(bytes.NewReader(file), int64(len(file)))
	if err != nil {
		f.Fatal(err)
	}
	last := r.Chunks()[r.NumChunks()-1]
	chunks := file[:last.Offset+chunkHeaderSize+int64(last.StoredLen)]
	f.Add(file[len(chunks) : len(file)-tailSize]) // the file's own footer
	hostile := r.idx
	hostile.Chunks = slices.Clone(hostile.Chunks)
	hostile.Chunks[1].StoredLen = math.MaxInt64 - 10
	body := encodeFooter(hostile)
	f.Add(body[:len(body)-tailSize])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, body []byte) {
		file := append(slices.Clip(chunks), body...)
		file = binary.LittleEndian.AppendUint32(file, uint32(len(body)))
		file = binary.LittleEndian.AppendUint32(file, crc32.Checksum(body, castagnoli))
		file = append(file, tailMagic...)
		one, oneSk, err := scanWith(t, bytes.NewReader(file), int64(len(file)), 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		four, fourSk, err := scanWith(t, bytes.NewReader(file), int64(len(file)), 4, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(one, four) || !reflect.DeepEqual(oneSk, fourSk) {
			t.Fatalf("one decoder read %d entries and skipped %+v; four read %d and skipped %+v",
				len(one), oneSk, len(four), fourSk)
		}
	})
}
