// Package tracestore implements the chunked columnar on-disk trace format
// and storage engine for fleet telemetry: a versioned binary layout that
// lets traces be written as the fleet runs (streaming ingest, no
// full-trace buffering) and replayed out-of-core, so the fast far memory
// model and the autotuner can work on traces larger than RAM.
//
// # On-disk layout (version 1)
//
//	header  | magic "SDFMTS", version, scan period, threshold set, CRC
//	chunk*  | "SFCK", flags, entry count, raw/stored lengths,
//	        | [minTS, maxTS], CRC over header+payload, payload
//	footer  | job directory + per-chunk index: offset, length, entry
//	        | count, time range, job set
//	tail    | footer length, footer CRC, magic "SDFMTSIX"
//
// Each chunk payload is self-contained: one entry-column block (package
// colfmt, fixed-width tails — a chunk-local job directory followed by one
// column per field), compressed with the repo's LZ77 compressor unless
// that would expand it. Every chunk carries
// a CRC32 over its header and payload; readers validate it before
// decoding, skip chunks that fail (or fail to decode), and account the
// skipped time ranges so replay degrades to gap-aware results instead of
// dying. The footer index maps (job, time range) to chunk offsets for
// pruned range scans; a missing or corrupt footer degrades to a
// sequential chunk walk with magic-byte resynchronization.
package tracestore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"sdfm/internal/telemetry"
	"sdfm/internal/telemetry/colfmt"
)

// Format identity. The version is part of the 8 leading bytes, so readers
// reject future layouts before touching any chunk.
const (
	headerMagic = "SDFMTS"
	tailMagic   = "SDFMTSIX"
	chunkMagic  = "SFCK"

	// Version is the on-disk layout version this package writes.
	Version = 1
)

const (
	chunkHeaderSize = 4 + 1 + 4 + 4 + 4 + 8 + 8 + 4 // magic..crc
	tailSize        = 4 + 4 + 8                     // footerLen, footerCRC, tailMagic

	flagCompressed = 1 << 0

	// maxChunkBytes bounds any single chunk's raw or stored payload; a
	// header claiming more is treated as corrupt rather than allocated.
	maxChunkBytes = 1 << 30
	// minEntryBytes is a safe lower bound on one encoded entry, used to
	// reject chunk headers whose entry count could not fit the claimed
	// payload. It is a plausibility check on the header only — colfmt
	// applies its own exact bound before decoding — and it decides which
	// damaged headers a footer-less rescan resynchronizes past, so it
	// stays at its version-1 value.
	minEntryBytes = 24
)

// DefaultChunkEntries is the writer's default entries-per-chunk. At the
// default threshold set one chunk is a few hundred KiB raw, small enough
// to bound reader memory and large enough to amortize the chunk header
// and compress well.
const DefaultChunkEntries = 4096

// ErrCorrupt is returned for damage the reader cannot work around (a
// header or footer that fails validation with no recovery path). Chunk-
// level damage is not an error: corrupt chunks are skipped and reported
// via Skipped.
var ErrCorrupt = errors.New("tracestore: corrupt file")

// ErrUnsupportedVersion is wrapped by Open and NewReader when the file's
// layout version is newer than this package understands.
var ErrUnsupportedVersion = errors.New("tracestore: unsupported format version")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Meta is the trace-wide metadata carried in the file header, mirroring
// the corresponding telemetry.Trace fields.
type Meta struct {
	// ScanPeriodSeconds is the cold-age quantum underlying the thresholds.
	ScanPeriodSeconds int64
	// Thresholds is the predefined cold-age threshold set, in scan periods.
	Thresholds []int
}

// MetaOf extracts the storable metadata of a trace.
func MetaOf(t *telemetry.Trace) Meta {
	return Meta{
		ScanPeriodSeconds: t.ScanPeriodSeconds,
		Thresholds:        append([]int(nil), t.Thresholds...),
	}
}

// Validate checks the metadata the same way telemetry validates a loaded
// trace.
func (m Meta) Validate() error {
	if m.ScanPeriodSeconds <= 0 {
		return fmt.Errorf("tracestore: non-positive scan period %d", m.ScanPeriodSeconds)
	}
	if len(m.Thresholds) == 0 {
		return errors.New("tracestore: empty threshold set")
	}
	if len(m.Thresholds) > 255 {
		return fmt.Errorf("tracestore: %d thresholds exceed the format limit of 255", len(m.Thresholds))
	}
	for i, t := range m.Thresholds {
		if t < 0 || t > math.MaxUint8 {
			return fmt.Errorf("tracestore: threshold %d out of the 8-bit age space", t)
		}
		if i > 0 && t <= m.Thresholds[i-1] {
			return fmt.Errorf("tracestore: thresholds not strictly increasing at %d", i)
		}
	}
	return nil
}

// encodeHeader renders the file header.
func encodeHeader(m Meta) []byte {
	buf := make([]byte, 0, 6+2+8+2+4*len(m.Thresholds)+4)
	buf = append(buf, headerMagic...)
	buf = binary.LittleEndian.AppendUint16(buf, Version)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(m.ScanPeriodSeconds))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(m.Thresholds)))
	for _, t := range m.Thresholds {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(t))
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli))
}

// decodeHeader parses and validates a file header, returning the metadata
// and the header's total length.
func decodeHeader(buf []byte) (Meta, int, error) {
	if len(buf) < 6+2 || string(buf[:6]) != headerMagic {
		return Meta{}, 0, fmt.Errorf("%w: bad header magic", ErrCorrupt)
	}
	if v := binary.LittleEndian.Uint16(buf[6:]); v != Version {
		return Meta{}, 0, fmt.Errorf("%w: file is version %d, reader understands %d", ErrUnsupportedVersion, v, Version)
	}
	if len(buf) < 6+2+8+2 {
		return Meta{}, 0, fmt.Errorf("%w: truncated header", ErrCorrupt)
	}
	m := Meta{ScanPeriodSeconds: int64(binary.LittleEndian.Uint64(buf[8:]))}
	nT := int(binary.LittleEndian.Uint16(buf[16:]))
	end := 18 + 4*nT
	if len(buf) < end+4 {
		return Meta{}, 0, fmt.Errorf("%w: truncated header threshold set", ErrCorrupt)
	}
	for i := 0; i < nT; i++ {
		m.Thresholds = append(m.Thresholds, int(binary.LittleEndian.Uint32(buf[18+4*i:])))
	}
	if got, want := crc32.Checksum(buf[:end], castagnoli), binary.LittleEndian.Uint32(buf[end:]); got != want {
		return Meta{}, 0, fmt.Errorf("%w: header CRC %#x, content digests to %#x", ErrCorrupt, want, got)
	}
	if err := m.Validate(); err != nil {
		return Meta{}, 0, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return m, end + 4, nil
}

// chunkInfo is one chunk's entry in the footer index (and, redundantly,
// in its own header — the copy that survives decides).
type chunkInfo struct {
	Offset     int64 // file offset of the chunk header
	StoredLen  int   // payload bytes on disk (excluding the fixed header)
	RawLen     int   // payload bytes after decompression
	Entries    int
	MinTS      int64
	MaxTS      int64
	Compressed bool
	Jobs       []int // file-directory job indices present in the chunk
}

// encodeChunkHeader renders the fixed chunk header with its CRC field
// zeroed; the caller patches the CRC after digesting header+payload.
func encodeChunkHeader(ci chunkInfo) []byte {
	buf := make([]byte, 0, chunkHeaderSize)
	buf = append(buf, chunkMagic...)
	var flags byte
	if ci.Compressed {
		flags |= flagCompressed
	}
	buf = append(buf, flags)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(ci.Entries))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(ci.RawLen))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(ci.StoredLen))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(ci.MinTS))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(ci.MaxTS))
	return binary.LittleEndian.AppendUint32(buf, 0) // CRC, patched later
}

// decodeChunkHeader parses the fixed chunk header, performing only the
// structural sanity checks that bound allocations; the CRC over
// header+payload is verified by the caller once the payload is read.
func decodeChunkHeader(buf []byte) (chunkInfo, uint32, error) {
	if len(buf) < chunkHeaderSize {
		return chunkInfo{}, 0, fmt.Errorf("%w: truncated chunk header", ErrCorrupt)
	}
	if string(buf[:4]) != chunkMagic {
		return chunkInfo{}, 0, fmt.Errorf("%w: bad chunk magic", ErrCorrupt)
	}
	ci := chunkInfo{
		Compressed: buf[4]&flagCompressed != 0,
		Entries:    int(binary.LittleEndian.Uint32(buf[5:])),
		RawLen:     int(binary.LittleEndian.Uint32(buf[9:])),
		StoredLen:  int(binary.LittleEndian.Uint32(buf[13:])),
		MinTS:      int64(binary.LittleEndian.Uint64(buf[17:])),
		MaxTS:      int64(binary.LittleEndian.Uint64(buf[25:])),
	}
	crc := binary.LittleEndian.Uint32(buf[33:])
	if err := ci.checkSizes(); err != nil {
		return chunkInfo{}, 0, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return ci, crc, nil
}

// checkSizes bounds the lengths and entry count a chunk header or footer
// record claims, before anything is sized or offset by them.
func (ci *chunkInfo) checkSizes() error {
	if ci.RawLen < 0 || ci.RawLen > maxChunkBytes || ci.StoredLen < 0 || ci.StoredLen > maxChunkBytes {
		return fmt.Errorf("chunk claims %d/%d payload bytes", ci.StoredLen, ci.RawLen)
	}
	if !ci.Compressed && ci.RawLen != ci.StoredLen {
		return fmt.Errorf("uncompressed chunk with stored %d != raw %d", ci.StoredLen, ci.RawLen)
	}
	if ci.Entries <= 0 || ci.Entries > ci.RawLen/minEntryBytes {
		return fmt.Errorf("chunk claims %d entries in %d bytes", ci.Entries, ci.RawLen)
	}
	return nil
}

// chunkCRC digests a chunk header (with a zeroed CRC field) and payload.
func chunkCRC(header, payload []byte) uint32 {
	crc := crc32.Checksum(header[:chunkHeaderSize-4], castagnoli)
	return crc32.Update(crc, castagnoli, payload)
}

// decodeChunkPayload decodes a raw (decompressed) chunk payload — one
// colfmt entry-column block with fixed-width tails — into entries. It
// never panics on malformed input; any structural damage returns an error
// wrapping ErrCorrupt. Entry-content validation (checksums) is the
// caller's concern.
func decodeChunkPayload(raw []byte, entryCount, nThresh int) ([]telemetry.Entry, error) {
	c := colfmt.NewCursor(raw)
	entries := colfmt.DecodeEntries(&c, entryCount, colfmt.Fixed(nThresh))
	if err := c.Done(); err != nil {
		return nil, fmt.Errorf("%w: chunk payload: %v", ErrCorrupt, err)
	}
	return entries, nil
}

// --- footer ---

// footer is the file-level index: the job directory (in first-seen
// order) and one index record per chunk.
type footer struct {
	Jobs   []telemetry.JobKey
	Chunks []chunkInfo
}

func encodeFooter(f footer) []byte {
	var body []byte
	body = binary.AppendUvarint(body, uint64(len(f.Jobs)))
	for _, k := range f.Jobs {
		body = colfmt.AppendJobKey(body, k)
	}
	body = binary.AppendUvarint(body, uint64(len(f.Chunks)))
	for _, ci := range f.Chunks {
		var flags byte
		if ci.Compressed {
			flags |= flagCompressed
		}
		body = append(body, flags)
		body = binary.AppendUvarint(body, uint64(ci.Offset))
		body = binary.AppendUvarint(body, uint64(ci.StoredLen))
		body = binary.AppendUvarint(body, uint64(ci.RawLen))
		body = binary.AppendUvarint(body, uint64(ci.Entries))
		body = binary.AppendVarint(body, ci.MinTS)
		body = binary.AppendVarint(body, ci.MaxTS)
		body = binary.AppendUvarint(body, uint64(len(ci.Jobs)))
		prev := 0
		for _, j := range ci.Jobs { // ascending, delta-coded
			body = binary.AppendUvarint(body, uint64(j-prev))
			prev = j
		}
	}
	body = binary.LittleEndian.AppendUint32(body, uint32(len(body)))
	body = binary.LittleEndian.AppendUint32(body, crc32.Checksum(body[:len(body)-4], castagnoli))
	return append(body, tailMagic...)
}

// decodeFooter parses a footer body (the bytes before the fixed tail) of
// a file whose header is headerLen bytes. The body is read straight off
// the end of the file, so every count is checked against the bytes that
// remain before it sizes anything, and every chunk record is bounded as
// a chunk header is and must start after the file header.
func decodeFooter(body []byte, headerLen int64) (footer, error) {
	c := colfmt.NewCursor(body)
	var f footer
	// A job is at least three empty strings; a chunk record at least a
	// flag byte, six varints and a job count.
	nJobs := c.Count(math.MaxInt, 3, "footer jobs")
	f.Jobs = make([]telemetry.JobKey, nJobs)
	for i := range f.Jobs {
		f.Jobs[i] = colfmt.ReadJobKey(&c, math.MaxInt)
	}
	f.Chunks = make([]chunkInfo, c.Count(math.MaxInt, 8, "footer chunks"))
	for i := range f.Chunks {
		ci := &f.Chunks[i]
		ci.Compressed = c.Byte()&flagCompressed != 0
		ci.Offset = int64(c.Uvarint())
		ci.StoredLen = int(c.Uvarint())
		ci.RawLen = int(c.Uvarint())
		ci.Entries = int(c.Uvarint())
		ci.MinTS = c.Varint()
		ci.MaxTS = c.Varint()
		if c.Err() == nil {
			if err := ci.checkSizes(); err != nil {
				c.Failf("chunk %d record: %v", i, err)
				break
			}
			if ci.Offset < headerLen {
				c.Failf("chunk %d at offset %d inside the %d-byte file header", i, ci.Offset, headerLen)
				break
			}
		}
		ci.Jobs = make([]int, c.Count(nJobs, 1, "chunk jobs"))
		prev := 0
		for j := range ci.Jobs {
			d := c.Uvarint()
			if d >= uint64(nJobs-prev) {
				c.Failf("chunk %d job index out of directory of %d", i, nJobs)
				break
			}
			prev += int(d)
			ci.Jobs[j] = prev
		}
	}
	if err := c.Done(); err != nil {
		return footer{}, fmt.Errorf("%w: footer: %v", ErrCorrupt, err)
	}
	return f, nil
}
