package tracestore

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"sort"

	"sdfm/internal/compress"
	"sdfm/internal/telemetry"
	"sdfm/internal/telemetry/colfmt"
)

// Writer streams telemetry entries into the chunked columnar format.
// Append validates each entry exactly like telemetry.Trace.Append, and
// every ChunkEntries appends the batch is cut into a chunk: the caller
// settles its job directory, time range and entry count, and one sealing
// goroutine stamps unset checksums, encodes, compresses, CRCs and writes
// it while the caller fills the next batch. A Writer therefore buffers at
// most two chunks of entries, the open batch and the one being sealed,
// and keeps at most one seal in flight: the next cut, Flush or Close
// waits for it first. A collector can feed a Writer for a week-long fleet
// run without the trace ever existing in memory at once.
//
// Like a Trace, the Writer keeps what it is given: an appended entry's
// tails must not change until its chunk is written (Flush returns).
// A write error is sticky, as in bufio.Writer: the first Append, Flush or
// Close after the sealing goroutine met it returns it, as does every call
// after that; Flush and Close wait for the seal, so they always see it.
//
// Writer implements telemetry.EntrySink, so it plugs directly into
// telemetry.NewCollector as the node agent's export destination.
type Writer struct {
	w    io.Writer
	meta Meta

	chunkEntries int
	batch        []telemetry.Entry
	spare        []telemetry.Entry // the buffer of the batch last cut
	jobIdx       map[telemetry.JobKey]int
	jobs         []telemetry.JobKey

	// While a seal is in flight its goroutine owns these; a join hands
	// them back.
	offset    int64 // next write position
	chunks    []chunkInfo
	sums      []uint64
	enc, comp []byte

	sealing bool       // a seal is in flight
	sealed  chan error // its result

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
		sealed:       make(chan error, 1),
	}
	for _, o := range opts {
		o(tw)
	}
	return tw, nil
}

// Append validates e and buffers it into the current chunk, cutting the
// chunk when it reaches the batch size. An unset checksum is stamped
// when the chunk is sealed.
func (w *Writer) Append(e telemetry.Entry) error {
	if err := w.join(false); err != nil {
		return err
	}
	if w.closed {
		return fmt.Errorf("tracestore: append after Close")
	}
	if err := e.Validate(len(w.meta.Thresholds)); err != nil {
		return err
	}
	if err := w.start(); err != nil {
		return err
	}
	w.batch = append(w.batch, e)
	if len(w.batch) >= w.chunkEntries {
		return w.cut()
	}
	return nil
}

// Flush seals the buffered entries into a chunk and returns once it, and
// every chunk before it, is written. Append cuts a chunk at the batch
// size without waiting for it, and Close flushes; calling Flush early
// simply cuts a shorter chunk (an ingest pipeline may flush at interval
// boundaries so a crash loses at most the open interval).
func (w *Writer) Flush() error {
	if err := w.cut(); err != nil {
		return err
	}
	return w.join(true)
}

// cut settles the open batch's chunk record — job directory, time range,
// entry count — and hands the batch to a new sealing goroutine once the
// seal before it has finished.
func (w *Writer) cut() error {
	if err := w.join(false); err != nil || len(w.batch) == 0 {
		return err
	}
	ci := chunkInfo{
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

	if err := w.join(true); err != nil {
		return err
	}
	batch := w.batch
	w.batch, w.spare = w.spare[:0], batch
	w.entries += len(batch)
	w.sealing = true
	go func() { w.sealed <- w.seal(batch, ci) }()
	return nil
}

// seal stamps, encodes, compresses, CRCs and writes batch as chunk ci,
// on the sealing goroutine.
func (w *Writer) seal(batch []telemetry.Entry, ci chunkInfo) error {
	for i := range batch {
		if batch[i].Checksum == 0 {
			w.sums = telemetry.AppendChecksums(w.sums[:0], batch[i:])
			for j, sum := range w.sums {
				if batch[i+j].Checksum == 0 {
					batch[i+j].Checksum = sum
				}
			}
			break
		}
	}
	raw, err := colfmt.AppendEntries(w.enc[:0], batch, colfmt.Fixed(len(w.meta.Thresholds)))
	if err != nil { // unreachable: Append validated every buffered entry
		return fmt.Errorf("tracestore: %w", err)
	}
	w.enc = raw
	// Store the payload compressed unless that would expand it.
	w.comp = compress.Compress(slices.Grow(w.comp[:0], compress.CompressBound(len(raw))), raw)
	stored := raw
	if ci.Compressed = len(w.comp) < len(raw); ci.Compressed {
		stored = w.comp
	}
	ci.Offset = w.offset
	ci.RawLen = len(raw)
	ci.StoredLen = len(stored)

	header := encodeChunkHeader(ci)
	binary.LittleEndian.PutUint32(header[chunkHeaderSize-4:], chunkCRC(header, stored))
	if err := w.write(header); err != nil {
		return err
	}
	if err := w.write(stored); err != nil {
		return err
	}
	w.chunks = append(w.chunks, ci)
	return nil
}

// join collects the seal in flight, waiting for it if wait is set, and
// returns the Writer's sticky error.
func (w *Writer) join(wait bool) error {
	if w.sealing && (wait || len(w.sealed) > 0) {
		w.sealing = false
		if err := <-w.sealed; err != nil {
			w.err = err
		}
	}
	return w.err
}

// Close flushes the open chunk and writes the footer index. The Writer is
// unusable afterwards; the underlying io.Writer is not closed.
func (w *Writer) Close() error {
	if err := w.join(true); err != nil {
		return err
	}
	if w.closed {
		return nil
	}
	if err := w.start(); err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if err := w.write(encodeFooter(footer{Jobs: w.jobs, Chunks: w.chunks})); err != nil {
		w.err = err
		return err
	}
	w.closed = true
	return nil
}

// Entries returns how many entries have been cut into chunks plus the
// open batch.
func (w *Writer) Entries() int { return w.entries + len(w.batch) }

// Jobs returns how many distinct jobs have been cut into chunks.
func (w *Writer) Jobs() int { return len(w.jobs) }

// start writes the file header, once, before anything else.
func (w *Writer) start() error {
	if w.started {
		return nil
	}
	if err := w.write(encodeHeader(w.meta)); err != nil {
		w.err = err
		return err
	}
	w.started = true
	return nil
}

// write writes b at the next position. Only the goroutine that owns
// offset calls it: the sealing goroutine while a seal is in flight, the
// caller otherwise.
func (w *Writer) write(b []byte) error {
	n, err := w.w.Write(b)
	w.offset += int64(n)
	if err != nil {
		return fmt.Errorf("tracestore: write: %w", err)
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
