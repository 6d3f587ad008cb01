package tracestore

import (
	"testing"

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
		f, err := decodeFooter(body)
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
