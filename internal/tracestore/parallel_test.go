package tracestore

import (
	"bytes"
	"errors"
	"io"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"sdfm/internal/fault"
	"sdfm/internal/telemetry"
)

// storeBytes writes tr with the given chunk size into memory.
func storeBytes(t testing.TB, tr *telemetry.Trace, chunk int) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteTrace(&buf, tr, WithChunkEntries(chunk)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// scanWith opens src and scans it with the given decoder count, keeping
// every entry fn sees up to stopAt (stopAt 0 never stops).
func scanWith(t testing.TB, src io.ReaderAt, size int64, workers, stopAt int) ([]telemetry.Entry, Skipped, error) {
	t.Helper()
	r, err := NewReader(src, size)
	if err != nil {
		t.Fatal(err)
	}
	var got []telemetry.Entry
	err = r.scan(func(e telemetry.Entry) error {
		got = append(got, e)
		if len(got) == stopAt {
			return errStop
		}
		return nil
	}, workers)
	return got, r.Skipped(), err
}

var errStop = errors.New("stop here")

// running reports whether some goroutine's stack holds a call to fn.
func running(fn string) bool {
	buf := make([]byte, 1<<20)
	return strings.Contains(string(buf[:runtime.Stack(buf, true)]), fn)
}

// waitGoroutines polls until at most n goroutines run.
func waitGoroutines(t *testing.T, n int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > n; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still running, %d before", runtime.NumGoroutine(), n)
		}
	}
}

// TestScanWorkersAgree holds the decode-ahead scan to the one-decoder
// scan: the same entries in the same order and the same Skipped, ranges
// and their order included, on a clean file and on each kind of damage
// a scan steps over.
func TestScanWorkersAgree(t *testing.T) {
	tr := testTrace(t, 6)
	clean := storeBytes(t, tr, 40)
	r, err := NewReader(bytes.NewReader(clean), int64(len(clean)))
	if err != nil {
		t.Fatal(err)
	}
	chunks := r.Chunks()
	if len(chunks) < 16 {
		t.Fatalf("want a file of many chunks, got %d", len(chunks))
	}
	payload := func(b []byte, i int) []byte {
		c := chunks[i]
		return b[c.Offset+chunkHeaderSize : c.Offset+chunkHeaderSize+int64(c.StoredLen)]
	}

	flipped := bytes.Clone(clean)
	fault.FlipBytes(payload(flipped, 5), 7, 1)
	fault.FlipBytes(payload(flipped, 6), 8, 1)

	// Cut inside the last chunk: the footer is lost, the rescan stops
	// at the torn chunk, and a flipped chunk before it is skipped.
	last := chunks[len(chunks)-1]
	torn := bytes.Clone(clean[:last.Offset+chunkHeaderSize+int64(last.StoredLen)/2])
	fault.FlipBytes(payload(torn, 3), 9, 1)

	// Entries whose checksums no longer match, inside healthy chunks.
	var batches [][]telemetry.Entry
	for i := 0; i+30 <= 300; i += 30 {
		batches = append(batches, append([]telemetry.Entry(nil), tr.Entries[i:i+30]...))
	}
	batches[2][4].WSSPages++
	batches[2][9].Checksum = 0
	batches[7][29].TotalPages++
	tampered, index := handSealed(t, MetaOf(tr), batches...)
	tampered = append(tampered, encodeFooter(footer{Chunks: index})...)

	for name, file := range map[string][]byte{
		"clean": clean, "flipped payload bytes": flipped, "torn tail": torn, "stale checksums": tampered,
	} {
		want, wantSk, err := scanWith(t, bytes.NewReader(file), int64(len(file)), 1, 0)
		if err != nil {
			t.Fatalf("%s: one decoder: %v", name, err)
		}
		if len(want) == 0 || (name != "clean") != (len(wantSk.Ranges) > 0) {
			t.Fatalf("%s: one decoder read %d entries and skipped %+v", name, len(want), wantSk)
		}
		got, gotSk, err := scanWith(t, bytes.NewReader(file), int64(len(file)), 4, 0)
		if err != nil {
			t.Fatalf("%s: four decoders: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			i := 0
			for i < min(len(got), len(want)) && reflect.DeepEqual(got[i], want[i]) {
				i++
			}
			t.Errorf("%s: four decoders differ from one at entry %d (%d vs %d entries)", name, i, len(got), len(want))
		}
		if !reflect.DeepEqual(gotSk, wantSk) {
			t.Errorf("%s: four decoders skipped\n%+v\none decoder skipped\n%+v", name, gotSk, wantSk)
		}
	}
}

// slowReaderAt holds every read a little, so decoders are in the middle
// of a chunk when fn stops the scan.
type slowReaderAt struct{ r *bytes.Reader }

func (s slowReaderAt) ReadAt(p []byte, off int64) (int, error) {
	time.Sleep(2 * time.Millisecond)
	return s.r.ReadAt(p, off)
}

// TestScanStopsAtFnError: an error from fn ends the scan with that error
// after the same entries on one decoder and on four, and Scan returns
// only once no decoder is reading a chunk.
func TestScanStopsAtFnError(t *testing.T) {
	file := storeBytes(t, testTrace(t, 6), 40)
	src := slowReaderAt{bytes.NewReader(file)}
	all, _, err := scanWith(t, src, int64(len(file)), 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	for _, stopAt := range []int{1, 40, 41, 333, len(all)} {
		for _, workers := range []int{1, 4} {
			got, sk, err := scanWith(t, src, int64(len(file)), workers, stopAt)
			if running("(*Reader).readChunk") {
				t.Errorf("stop at %d, %d decoders: a decoder is still reading after Scan returned", stopAt, workers)
			}
			if !errors.Is(err, errStop) {
				t.Fatalf("stop at %d, %d decoders: Scan = %v, want fn's error", stopAt, workers, err)
			}
			if !reflect.DeepEqual(got, all[:stopAt]) || len(sk.Ranges) != 0 {
				t.Errorf("stop at %d, %d decoders: fn saw %d entries (want the first %d), skipped %+v",
					stopAt, workers, len(got), stopAt, sk)
			}
		}
	}
	waitGoroutines(t, before)
}

// slowBuffer is a bytes.Buffer whose writes take a moment, so a seal is
// still writing when the caller cuts the next chunk.
type slowBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *slowBuffer) Write(p []byte) (int, error) {
	time.Sleep(100 * time.Microsecond)
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *slowBuffer) Bytes() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return bytes.Clone(b.buf.Bytes())
}

// TestWriterSealsInFlightLikeOneAtATime: a Writer left to seal each
// chunk while the next fills writes the bytes of one whose every chunk
// is flushed, and so waited for, before the next entry is appended.
func TestWriterSealsInFlightLikeOneAtATime(t *testing.T) {
	tr := testTrace(t, 6)
	want := storeBytes(t, tr, 40)
	for _, flushEach := range []bool{false, true} {
		var out slowBuffer
		w, err := NewWriter(&out, MetaOf(tr), WithChunkEntries(40))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range tr.Entries {
			if err := w.Append(e); err != nil {
				t.Fatal(err)
			}
			if flushEach && w.Entries()%40 == 0 {
				if err := w.Flush(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if got := out.Bytes(); !bytes.Equal(got, want) {
			t.Errorf("flush each chunk %v: %d bytes differ from the %d of WriteTrace", flushEach, len(got), len(want))
		}
	}
}

// TestFlushedBytesReopen: once Flush returns, every entry appended so
// far is on disk — the bytes written, with no footer yet, reopen through
// the chunk rescan with all of them present, stamped.
func TestFlushedBytesReopen(t *testing.T) {
	tr := testTrace(t, 3)
	var out slowBuffer
	w, err := NewWriter(&out, MetaOf(tr), WithChunkEntries(64))
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{64, 150, 300} { // on a cut, after two, mid-batch
		for _, e := range tr.Entries[w.Entries():n] {
			e.Checksum = 0 // the Writer stamps it
			if err := w.Append(e); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		file := out.Bytes()
		r, err := NewReader(bytes.NewReader(file), int64(len(file)))
		if err != nil {
			t.Fatal(err)
		}
		if !r.noFooter {
			t.Fatalf("after %d entries: a flushed file without Close has a footer", n)
		}
		got, err := r.ReadTrace()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Entries, tr.Entries[:n]) || r.Skipped().Entries != 0 {
			t.Fatalf("after Flush at %d entries the file reopens with %d, skipping %+v", n, len(got.Entries), r.Skipped())
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// failAfter accepts limit bytes, then fails every write.
type failAfter struct {
	limit int
	n     int
}

var errDiskFull = errors.New("disk full")

func (f *failAfter) Write(p []byte) (int, error) {
	if f.n+len(p) > f.limit {
		return 0, errDiskFull
	}
	f.n += len(p)
	return len(p), nil
}

// TestWriterWriteErrorIsSticky: a write that fails on the sealing
// goroutine surfaces by the Append that cuts the next chunk at the
// latest, always on Flush and Close, and on every call after that; no
// seal is left running.
func TestWriterWriteErrorIsSticky(t *testing.T) {
	tr := testTrace(t, 1)
	before := runtime.NumGoroutine()
	for _, flush := range []bool{false, true} {
		w, err := NewWriter(&failAfter{limit: len(encodeHeader(MetaOf(tr))) + 10}, MetaOf(tr), WithChunkEntries(10))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range tr.Entries[:10] { // the tenth cuts the chunk whose write fails
			if err := w.Append(e); err != nil {
				t.Fatal(err)
			}
		}
		if flush {
			err = w.Flush()
		} else {
			for _, e := range tr.Entries[10:20] {
				if err = w.Append(e); err != nil {
					break
				}
			}
		}
		if !errors.Is(err, errDiskFull) {
			t.Fatalf("flush %v: the failed seal surfaced as %v", flush, err)
		}
		if err := w.Append(tr.Entries[20]); !errors.Is(err, errDiskFull) {
			t.Errorf("flush %v: Append after the error = %v", flush, err)
		}
		if err := w.Flush(); !errors.Is(err, errDiskFull) {
			t.Errorf("flush %v: Flush after the error = %v", flush, err)
		}
		if err := w.Close(); !errors.Is(err, errDiskFull) {
			t.Errorf("flush %v: Close after the error = %v", flush, err)
		}
	}
	waitGoroutines(t, before)
}

// TestHostileFooterLengthRescans: a footer whose CRC is good but whose
// chunk record claims a stored length near MaxInt64 is refused like a
// damaged footer, and the chunk headers recover the data. Taken at its
// word, the claim overflowed the chunk's extent and Scan panicked
// slicing its read buffer.
func TestHostileFooterLengthRescans(t *testing.T) {
	tr := testTrace(t, 1)
	entries := tr.Entries[:8]
	file, index := handSealed(t, MetaOf(tr), entries)
	index[0].StoredLen = math.MaxInt64 - 10
	file = append(file, encodeFooter(footer{Chunks: index})...)
	defer func() {
		if p := recover(); p != nil {
			t.Fatalf("Scan panicked on a footer claiming %d stored bytes: %v", index[0].StoredLen, p)
		}
	}()
	got, sk, err := scanWith(t, bytes.NewReader(file), int64(len(file)), 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, entries) || sk.Entries != 0 {
		t.Errorf("recovered %d of %d entries, skipped %+v", len(got), len(entries), sk)
	}
}
