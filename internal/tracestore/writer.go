package tracestore

import (
	"encoding/binary"
	"fmt"
	"io"
	"sort"

	"sdfm/internal/telemetry"
	"sdfm/internal/telemetry/colfmt"
)

// Writer streams telemetry entries into the chunked columnar format. It
// buffers at most one chunk of entries: Append validates and stamps each
// entry exactly like telemetry.Trace.Append, and every ChunkEntries
// appends the batch is sealed — encoded, compressed, CRC'd — and written
// out, so a collector can feed a Writer for a week-long fleet run without
// the trace ever existing in memory at once.
//
// Writer implements telemetry.EntrySink, so it plugs directly into
// telemetry.NewCollector as the node agent's export destination.
type Writer struct {
	w    io.Writer
	meta Meta

	chunkEntries int
	batch        []telemetry.Entry
	jobIdx       map[telemetry.JobKey]int
	jobs         []telemetry.JobKey

	offset  int64 // next write position
	chunks  []chunkInfo
	entries int
	started bool
	closed  bool
	err     error
}

// WriterOption configures a Writer.
type WriterOption func(*Writer)

// WithChunkEntries sets the entries-per-chunk batch size.
func WithChunkEntries(n int) WriterOption {
	return func(w *Writer) {
		if n > 0 {
			w.chunkEntries = n
		}
	}
}

// NewWriter creates a streaming writer over w. The header is written on
// the first Append (or Close), so a writer that never receives an entry
// still produces a valid, empty file.
func NewWriter(w io.Writer, meta Meta, opts ...WriterOption) (*Writer, error) {
	if err := meta.Validate(); err != nil {
		return nil, err
	}
	tw := &Writer{
		w:            w,
		meta:         Meta{ScanPeriodSeconds: meta.ScanPeriodSeconds, Thresholds: append([]int(nil), meta.Thresholds...)},
		chunkEntries: DefaultChunkEntries,
		jobIdx:       make(map[telemetry.JobKey]int),
	}
	for _, o := range opts {
		o(tw)
	}
	return tw, nil
}

// Append validates e, stamps its checksum if unset, and buffers it into
// the current chunk, sealing the chunk when it reaches the batch size.
func (w *Writer) Append(e telemetry.Entry) error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return fmt.Errorf("tracestore: append after Close")
	}
	if err := e.Validate(len(w.meta.Thresholds)); err != nil {
		return err
	}
	if e.Checksum == 0 {
		e.Checksum = e.ComputeChecksum()
	}
	if !w.started {
		if err := w.write(encodeHeader(w.meta)); err != nil {
			return err
		}
		w.started = true
	}
	w.batch = append(w.batch, e)
	if len(w.batch) >= w.chunkEntries {
		return w.Flush()
	}
	return nil
}

// Flush seals the buffered entries into a chunk. It is called implicitly
// at the batch size and by Close; calling it early simply cuts a shorter
// chunk (an ingest pipeline may flush at interval boundaries so a crash
// loses at most the open interval).
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	if len(w.batch) == 0 {
		return nil
	}
	ci := chunkInfo{
		Offset:  w.offset,
		Entries: len(w.batch),
		MinTS:   w.batch[0].TimestampSec,
		MaxTS:   w.batch[0].TimestampSec,
	}
	seen := make(map[int]bool)
	for i := range w.batch {
		e := &w.batch[i]
		if e.TimestampSec < ci.MinTS {
			ci.MinTS = e.TimestampSec
		}
		if e.TimestampSec > ci.MaxTS {
			ci.MaxTS = e.TimestampSec
		}
		idx, ok := w.jobIdx[e.Key]
		if !ok {
			idx = len(w.jobs)
			w.jobIdx[e.Key] = idx
			w.jobs = append(w.jobs, e.Key)
		}
		if !seen[idx] {
			seen[idx] = true
			ci.Jobs = append(ci.Jobs, idx)
		}
	}
	sort.Ints(ci.Jobs)

	raw, err := colfmt.AppendEntries(nil, w.batch, colfmt.Fixed(len(w.meta.Thresholds)))
	if err != nil { // unreachable: Append validated every buffered entry
		w.err = fmt.Errorf("tracestore: %w", err)
		return w.err
	}
	stored, compressed := compressPayload(raw)
	ci.RawLen = len(raw)
	ci.StoredLen = len(stored)
	ci.Compressed = compressed

	header := encodeChunkHeader(ci)
	binary.LittleEndian.PutUint32(header[chunkHeaderSize-4:], chunkCRC(header, stored))
	if err := w.write(header); err != nil {
		return err
	}
	if err := w.write(stored); err != nil {
		return err
	}
	w.chunks = append(w.chunks, ci)
	w.entries += len(w.batch)
	w.batch = w.batch[:0]
	return nil
}

// Close flushes the open chunk and writes the footer index. The Writer is
// unusable afterwards; the underlying io.Writer is not closed.
func (w *Writer) Close() error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return nil
	}
	if !w.started {
		if err := w.write(encodeHeader(w.meta)); err != nil {
			return err
		}
		w.started = true
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if err := w.write(encodeFooter(footer{Jobs: w.jobs, Chunks: w.chunks})); err != nil {
		return err
	}
	w.closed = true
	return nil
}

// Entries returns how many entries have been sealed into chunks plus the
// open batch.
func (w *Writer) Entries() int { return w.entries + len(w.batch) }

// Jobs returns how many distinct jobs have been sealed into chunks.
func (w *Writer) Jobs() int { return len(w.jobs) }

func (w *Writer) write(b []byte) error {
	n, err := w.w.Write(b)
	w.offset += int64(n)
	if err != nil {
		w.err = fmt.Errorf("tracestore: write: %w", err)
		return w.err
	}
	return nil
}

// WriteTrace writes an in-memory trace in the chunked columnar format —
// the bulk-conversion counterpart of streaming ingest.
func WriteTrace(w io.Writer, t *telemetry.Trace, opts ...WriterOption) error {
	tw, err := NewWriter(w, MetaOf(t), opts...)
	if err != nil {
		return err
	}
	for _, e := range t.Entries {
		if err := tw.Append(e); err != nil {
			return err
		}
	}
	return tw.Close()
}
