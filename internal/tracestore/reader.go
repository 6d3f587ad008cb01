package tracestore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
	"time"

	"sdfm/internal/compress"
	"sdfm/internal/model"
	"sdfm/internal/par"
	"sdfm/internal/telemetry"
)

// SkippedRange is one damaged region the reader worked around: a chunk
// that failed its CRC or decode, or individual entries inside a healthy
// chunk that failed validation or their content checksum.
type SkippedRange struct {
	// Chunk is the chunk ordinal in file order.
	Chunk int
	// Offset is the chunk's file offset.
	Offset int64
	// MinTS and MaxTS bound the lost interval range (from the index; best
	// effort when the chunk header itself was the casualty).
	MinTS, MaxTS int64
	// Entries is how many entries the range was supposed to hold.
	Entries int
	// Reason describes the failure.
	Reason string
}

// Skipped aggregates what a scan stepped over. The skipped entries
// surface in replay as missing intervals: the per-job timestamp jumps
// they leave behind are exactly what model gap/completeness accounting
// counts, so a corrupted file replays with gaps instead of failing.
type Skipped struct {
	Chunks  int
	Entries int
	Ranges  []SkippedRange
}

// Reader reads a chunked columnar trace file. Open validates the header
// and loads the footer index (rebuilding it by walking chunk headers when
// the footer is damaged); Scan streams entries in chunk order, validating
// each chunk's CRC and each entry's checksum, skipping what fails. A scan
// holds at most 2×par.Workers() decoded chunks in memory, the one being
// delivered included (one with a single worker), plus one read and one
// decompression buffer per decoder.
type Reader struct {
	r    io.ReaderAt
	size int64
	meta Meta
	idx  footer

	// noFooter records that the index was rebuilt by scanning, so job
	// sets per chunk are unknown.
	noFooter bool

	skipped Skipped
}

// NewReader opens a trace store from a random-access byte source.
func NewReader(r io.ReaderAt, size int64) (*Reader, error) {
	head := make([]byte, 4096)
	if int64(len(head)) > size {
		head = head[:size]
	}
	if _, err := r.ReadAt(head, 0); err != nil && err != io.EOF {
		return nil, fmt.Errorf("tracestore: reading header: %w", err)
	}
	meta, headerLen, err := decodeHeader(head)
	if err != nil {
		return nil, err
	}
	tr := &Reader{r: r, size: size, meta: meta}
	if err := tr.loadFooter(int64(headerLen)); err != nil {
		return nil, err
	}
	return tr, nil
}

// loadFooter reads the footer index, falling back to a sequential chunk
// walk (with magic-byte resynchronization) when the tail or footer is
// damaged — index loss costs job metadata and range pruning, not data.
func (r *Reader) loadFooter(headerLen int64) error {
	ok := func() bool {
		if r.size < headerLen+tailSize {
			return false
		}
		tail := make([]byte, tailSize)
		if _, err := r.r.ReadAt(tail, r.size-tailSize); err != nil {
			return false
		}
		if string(tail[8:]) != tailMagic {
			return false
		}
		bodyLen := int64(binary.LittleEndian.Uint32(tail[0:]))
		wantCRC := binary.LittleEndian.Uint32(tail[4:])
		start := r.size - tailSize - bodyLen
		if bodyLen <= 0 || start < headerLen {
			return false
		}
		body := make([]byte, bodyLen)
		if _, err := r.r.ReadAt(body, start); err != nil {
			return false
		}
		if crc32.Checksum(body, castagnoli) != wantCRC {
			return false
		}
		f, err := decodeFooter(body, headerLen)
		if err != nil {
			return false
		}
		r.idx = f
		return true
	}()
	if ok {
		return nil
	}
	r.noFooter = true
	return r.rescanChunks(headerLen)
}

// rescanChunks rebuilds the chunk index by walking chunk headers from the
// end of the file header. A chunk header that fails its structural checks
// breaks the walk; the scanner then searches forward for the next chunk
// magic and resumes, so one corrupt length field does not orphan the rest
// of the file.
func (r *Reader) rescanChunks(start int64) error {
	pos := start
	hdr := make([]byte, chunkHeaderSize)
	for pos+chunkHeaderSize <= r.size {
		if _, err := r.r.ReadAt(hdr, pos); err != nil {
			break
		}
		ci, _, err := decodeChunkHeader(hdr)
		if err != nil || pos+chunkHeaderSize+int64(ci.StoredLen) > r.size {
			next, found := r.findChunkMagic(pos + 1)
			if !found {
				break
			}
			pos = next
			continue
		}
		ci.Offset = pos
		r.idx.Chunks = append(r.idx.Chunks, ci)
		pos += chunkHeaderSize + int64(ci.StoredLen)
	}
	return nil
}

// findChunkMagic searches forward from pos for the chunk magic bytes.
func (r *Reader) findChunkMagic(pos int64) (int64, bool) {
	const window = 1 << 16
	buf := make([]byte, window+4)
	for pos < r.size {
		n, err := r.r.ReadAt(buf, pos)
		if n < 4 {
			return 0, false
		}
		if i := bytes.Index(buf[:n], []byte(chunkMagic)); i >= 0 {
			return pos + int64(i), true
		}
		if err != nil {
			return 0, false
		}
		pos += int64(n - 3) // overlap so a magic spanning reads is found
	}
	return 0, false
}

// Meta returns the trace-wide metadata.
func (r *Reader) Meta() Meta { return r.meta }

// NumChunks returns the indexed chunk count.
func (r *Reader) NumChunks() int { return len(r.idx.Chunks) }

// NumEntries returns the indexed entry count (what a clean scan yields).
func (r *Reader) NumEntries() int {
	n := 0
	for _, ci := range r.idx.Chunks {
		n += ci.Entries
	}
	return n
}

// Jobs returns the distinct job keys in telemetry.JobKey.Compare order.
// After footer loss it returns nil; scan the file to recover jobs.
func (r *Reader) Jobs() []telemetry.JobKey {
	if r.noFooter {
		return nil
	}
	out := append([]telemetry.JobKey(nil), r.idx.Jobs...)
	slices.SortFunc(out, telemetry.JobKey.Compare)
	return out
}

// TimeBounds returns the indexed [min, max] entry timestamps, in seconds.
func (r *Reader) TimeBounds() (minTS, maxTS int64) {
	for i, ci := range r.idx.Chunks {
		if i == 0 || ci.MinTS < minTS {
			minTS = ci.MinTS
		}
		if ci.MaxTS > maxTS {
			maxTS = ci.MaxTS
		}
	}
	return minTS, maxTS
}

// Skipped reports the damage stepped over by scans so far.
func (r *Reader) Skipped() Skipped { return r.skipped }

// ChunkStat describes one indexed chunk, for inspection tools.
type ChunkStat struct {
	Offset     int64
	Entries    int
	RawLen     int
	StoredLen  int
	Compressed bool
	MinTS      int64
	MaxTS      int64
}

// Chunks returns the chunk index (from the footer, or rebuilt by the
// sequential rescan when the footer was lost).
func (r *Reader) Chunks() []ChunkStat {
	out := make([]ChunkStat, len(r.idx.Chunks))
	for i, ci := range r.idx.Chunks {
		out[i] = ChunkStat{
			Offset: ci.Offset, Entries: ci.Entries,
			RawLen: ci.RawLen, StoredLen: ci.StoredLen,
			Compressed: ci.Compressed, MinTS: ci.MinTS, MaxTS: ci.MaxTS,
		}
	}
	return out
}

// Scan streams every entry in chunk order. Corrupt chunks and invalid
// entries are skipped and recorded (see Skipped); only I/O failures and
// a non-nil return from fn stop the scan. Chunks are read, CRC-checked,
// decoded and checksummed ahead on par.Ordered's producers; fn, the entry
// checks and the skip accounting run on the caller in chunk order, and
// no goroutine is left running when Scan returns.
func (r *Reader) Scan(fn func(telemetry.Entry) error) error {
	return r.scan(fn, par.Workers())
}

// decoded is a chunk as a decoder leaves it: its entries and their
// computed checksums, or why it must be skipped.
type decoded struct {
	entries []telemetry.Entry
	sums    []uint64
	err     error
}

// scan is Scan with the decoder count as a parameter: par.Ordered decodes
// chunks ahead, each decoder with its own buffers, and delivers them in
// chunk order.
func (r *Reader) scan(fn func(telemetry.Entry) error, workers int) error {
	chunks := r.idx.Chunks
	bufs := make([]chunkBufs, max(1, min(workers, len(chunks))))
	return par.Ordered(len(chunks), workers,
		func(w, i int) decoded { return r.decode(chunks[i], &bufs[w]) },
		func(i int, d decoded) error { return r.deliver(i, d, fn) })
}

// decode reads and decodes chunk ci and computes its entries' checksums.
func (r *Reader) decode(ci chunkInfo, bufs *chunkBufs) decoded {
	entries, err := r.readChunk(ci, bufs)
	if err != nil {
		return decoded{err: err}
	}
	return decoded{entries: entries, sums: telemetry.AppendChecksums(nil, entries)}
}

// deliver passes chunk i's valid entries to fn, recording the chunk as
// skipped when it failed to decode and counting the entries that fail
// validation or their checksum.
func (r *Reader) deliver(i int, d decoded, fn func(telemetry.Entry) error) error {
	ci := r.idx.Chunks[i]
	if d.err != nil {
		r.skip(i, ci, d.err.Error())
		return nil
	}
	nT := len(r.meta.Thresholds)
	bad := 0
	for j, e := range d.entries {
		if e.Validate(nT) != nil || d.sums[j] != e.Checksum {
			bad++
			continue
		}
		if err := fn(e); err != nil {
			return err
		}
	}
	if bad > 0 {
		r.skipped.Entries += bad
		r.skipped.Ranges = append(r.skipped.Ranges, SkippedRange{
			Chunk: i, Offset: ci.Offset, MinTS: ci.MinTS, MaxTS: ci.MaxTS,
			Entries: bad, Reason: fmt.Sprintf("%d entries failed validation or checksum", bad),
		})
	}
	return nil
}

func (r *Reader) skip(i int, ci chunkInfo, reason string) {
	r.skipped.Chunks++
	r.skipped.Entries += ci.Entries
	r.skipped.Ranges = append(r.skipped.Ranges, SkippedRange{
		Chunk: i, Offset: ci.Offset, MinTS: ci.MinTS, MaxTS: ci.MaxTS,
		Entries: ci.Entries, Reason: reason,
	})
}

// chunkBufs is one decoder's read and decompression buffers. Decoded
// entries share neither, so both are reused from chunk to chunk.
type chunkBufs struct {
	read, raw []byte
}

// readChunk reads, CRC-checks, decompresses, and decodes one chunk.
func (r *Reader) readChunk(ci chunkInfo, bufs *chunkBufs) ([]telemetry.Entry, error) {
	total := chunkHeaderSize + ci.StoredLen
	if ci.Offset < 0 || ci.Offset > r.size-int64(total) {
		return nil, fmt.Errorf("chunk extends past end of file")
	}
	if cap(bufs.read) < total {
		bufs.read = make([]byte, total)
	}
	buf := bufs.read[:total]
	if _, err := r.r.ReadAt(buf, ci.Offset); err != nil {
		return nil, fmt.Errorf("read: %v", err)
	}
	hdr, wantCRC, err := decodeChunkHeader(buf)
	if err != nil {
		return nil, err
	}
	// The header on disk is authoritative for lengths, but it must agree
	// with the index about extent, or the CRC check below reads garbage.
	if hdr.StoredLen != ci.StoredLen {
		return nil, fmt.Errorf("chunk header stored length %d disagrees with index %d", hdr.StoredLen, ci.StoredLen)
	}
	payload := buf[chunkHeaderSize:]
	var zeroed [chunkHeaderSize]byte
	copy(zeroed[:chunkHeaderSize-4], buf)
	if got := chunkCRC(zeroed[:], payload); got != wantCRC {
		return nil, fmt.Errorf("chunk CRC %#x, content digests to %#x", wantCRC, got)
	}
	raw := payload
	if hdr.Compressed {
		raw, err = compress.Decompress(slices.Grow(bufs.raw[:0], hdr.RawLen), payload, hdr.RawLen)
		if err != nil {
			return nil, fmt.Errorf("decompress: %v", err)
		}
		bufs.raw = raw
		if len(raw) != hdr.RawLen {
			return nil, fmt.Errorf("decompressed to %d bytes, header claims %d", len(raw), hdr.RawLen)
		}
	}
	return decodeChunkPayload(raw, hdr.Entries, len(r.meta.Thresholds))
}

// Compile builds the fast model's replay form out-of-core — entries flow
// from chunks straight into the compiled columns, so autotuning works on
// traces that never fit in memory at once. Damage is skipped and surfaces
// as replay gap intervals.
func (r *Reader) Compile() (*model.CompiledTrace, error) {
	sc := model.NewStreamCompiler(r.meta.Thresholds, time.Duration(r.meta.ScanPeriodSeconds)*time.Second)
	if err := r.Scan(sc.Add); err != nil {
		return nil, err
	}
	return sc.Finish(), nil
}

// ReadTrace materializes the whole store as an in-memory trace,
// skipping damaged regions. Check Skipped afterwards for what was lost.
func (r *Reader) ReadTrace() (*telemetry.Trace, error) {
	t := &telemetry.Trace{
		ScanPeriodSeconds: r.meta.ScanPeriodSeconds,
		Thresholds:        append([]int(nil), r.meta.Thresholds...),
	}
	err := r.Scan(func(e telemetry.Entry) error {
		t.Entries = append(t.Entries, e)
		return nil
	})
	return t, err
}

// Verify performs a full integrity scan: every chunk read, CRC-checked,
// decoded, every entry validated. It returns the damage report (fresh,
// not cumulative) and the count of readable entries.
func (r *Reader) Verify() (Skipped, int, error) {
	before := r.skipped
	r.skipped = Skipped{}
	entries := 0
	err := r.Scan(func(telemetry.Entry) error { entries++; return nil })
	report := r.skipped
	r.skipped = before
	return report, entries, err
}
