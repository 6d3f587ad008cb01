// Package colfmt is the one byte layout of a batch of telemetry entries
// and the one bounds-checked reader every decoder in the module goes
// through. Report frames (controlplane/wire), checkpoint sections
// (controlplane/ckpt) and trace-store chunks (tracestore) each add their
// own framing — magic, version, CRC, index — around the same column
// block, so a change to telemetry.Entry is made, and fuzzed, here once.
//
// # Entry-column block
//
// The entry count is not part of the block; the caller's framing carries
// it. A block of zero entries is zero bytes.
//
//	job directory          uvarint count, then cluster/machine/job strings
//	                       (uvarint length + bytes) in first-seen order
//	job index per entry    uvarint into the directory
//	timestamps             varint, first value then deltas
//	interval minutes       float64 LE
//	WSS pages              uvarint
//	total pages            uvarint
//	cold tails per entry   see TailLayout
//	promo tails per entry  see TailLayout
//	compressible fraction  float64 LE
//	entry checksum         uint64 LE, carried verbatim
//
// Decoding treats its input as hostile: every claimed count is checked
// against the bytes that remain before anything is sized by it, so
// allocation is proportional to the input, never to a claim.
package colfmt

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"

	"sdfm/internal/telemetry"
)

// MaxTails bounds one entry's tail column under the Prefixed layout.
const MaxTails = 1 << 16

// TailLayout is how the two tail-sum columns are laid out. The zero value
// is Prefixed.
type TailLayout struct {
	width int // 0: length-prefixed; > 0: that many values per entry
}

// Prefixed stores each entry's tails as a uvarint length followed by the
// raw values. Nothing about the values is assumed, so damaged entries —
// non-monotone tails, stale checksums — survive the trip bit-exactly and
// are rejected with accounting where entries are validated. Report frames
// and checkpoints use it.
var Prefixed TailLayout

// Fixed stores exactly width values per entry — the trace's threshold
// count, known from the caller's header — as the first value followed by
// successive decrements: tail sums are monotone non-increasing, so the
// decrements are small and pack (and then compress) well. Only validated
// entries can be written this way. Trace-store chunks use it.
func Fixed(width int) TailLayout {
	if width < 1 {
		panic(fmt.Sprintf("colfmt: fixed tail width %d", width))
	}
	return TailLayout{width: width}
}

// minEntryBytes is a true lower bound on one encoded entry: job index,
// timestamp, WSS and total (1 byte each), interval, compressible fraction
// and checksum (8 each), and the two tail columns.
func (l TailLayout) minEntryBytes() int {
	if l.width > 0 {
		return 28 + 2*l.width
	}
	return 28 + 2
}

// AppendEntries appends the column block for entries to dst and returns
// the extended slice; with a reused dst the steady state allocates
// nothing. Entries are encoded verbatim. It fails, appending nothing,
// when an entry does not fit the layout: more than MaxTails tails under
// Prefixed, a tail count other than the width under Fixed. Fixed also
// requires monotone tails (telemetry.Entry.Validate), which the caller
// has checked.
func AppendEntries(dst []byte, entries []telemetry.Entry, layout TailLayout) ([]byte, error) {
	for i := range entries {
		nc, np := len(entries[i].ColdTails), len(entries[i].PromoTails)
		if layout.width > 0 && (nc != layout.width || np != layout.width) {
			return dst, fmt.Errorf("colfmt: entry %d has %d/%d tails, layout stores %d", i, nc, np, layout.width)
		}
		if nc > MaxTails || np > MaxTails {
			return dst, fmt.Errorf("colfmt: entry %d has %d/%d tails, limit %d", i, nc, np, MaxTails)
		}
	}
	if len(entries) == 0 {
		return dst, nil
	}
	// Job directory in first-seen order. A linear scan over a small
	// stack-backed directory instead of a map: a report batch comes from
	// one machine and spans a handful of jobs, and the scan keeps the
	// steady-state encode allocation-free. Past 64 distinct jobs (chunks
	// and checkpoint windows span clusters) a map takes over with the same
	// first-seen order, so the bytes are identical either way.
	var dirBuf [64]telemetry.JobKey
	dir := dirBuf[:0]
	var dirIdx map[telemetry.JobKey]int
	ordinal := func(k telemetry.JobKey) int {
		if dirIdx != nil {
			if i, ok := dirIdx[k]; ok {
				return i
			}
			return -1
		}
		for i := range dir {
			if dir[i] == k {
				return i
			}
		}
		return -1
	}
	for i := range entries {
		k := entries[i].Key
		if ordinal(k) >= 0 {
			continue
		}
		if dirIdx == nil && len(dir) == len(dirBuf) {
			dirIdx = make(map[telemetry.JobKey]int, 4*len(dir))
			for j := range dir {
				dirIdx[dir[j]] = j
			}
		}
		if dirIdx != nil {
			dirIdx[k] = len(dir)
		}
		dir = append(dir, k)
	}
	dst = binary.AppendUvarint(dst, uint64(len(dir)))
	for _, k := range dir {
		dst = AppendJobKey(dst, k)
	}
	for i := range entries {
		dst = binary.AppendUvarint(dst, uint64(ordinal(entries[i].Key)))
	}
	prev := int64(0)
	for i := range entries {
		dst = binary.AppendVarint(dst, entries[i].TimestampSec-prev)
		prev = entries[i].TimestampSec
	}
	for i := range entries {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(entries[i].IntervalMinutes))
	}
	for i := range entries {
		dst = binary.AppendUvarint(dst, entries[i].WSSPages)
	}
	for i := range entries {
		dst = binary.AppendUvarint(dst, entries[i].TotalPages)
	}
	for i := range entries {
		dst = layout.appendTails(dst, entries[i].ColdTails)
	}
	for i := range entries {
		dst = layout.appendTails(dst, entries[i].PromoTails)
	}
	for i := range entries {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(entries[i].CompressibleFrac))
	}
	for i := range entries {
		dst = binary.LittleEndian.AppendUint64(dst, entries[i].Checksum)
	}
	return dst, nil
}

func (l TailLayout) appendTails(dst []byte, tails []uint64) []byte {
	if l.width == 0 {
		dst = binary.AppendUvarint(dst, uint64(len(tails)))
		for _, v := range tails {
			dst = binary.AppendUvarint(dst, v)
		}
		return dst
	}
	prev := uint64(0)
	for j, v := range tails {
		if j == 0 {
			dst = binary.AppendUvarint(dst, v)
		} else {
			dst = binary.AppendUvarint(dst, prev-v)
		}
		prev = v
	}
	return dst
}

// AppendJobKey appends a job key as its three strings.
func AppendJobKey(dst []byte, k telemetry.JobKey) []byte {
	dst = AppendString(dst, k.Cluster)
	dst = AppendString(dst, k.Machine)
	return AppendString(dst, k.Job)
}

// ReadJobKey reads what AppendJobKey wrote; maxLen caps each string.
func ReadJobKey(c *Cursor, maxLen int) telemetry.JobKey {
	return telemetry.JobKey{Cluster: c.Str(maxLen), Machine: c.Str(maxLen), Job: c.Str(maxLen)}
}

// DecodeEntries reads a block of count entries from c, leaving c just
// past it. Damage — truncation, a count or index that cannot be right, a
// decrement that underflows — is recorded on the cursor (check c.Err or
// c.Done) and nil is returned. Entry content is not validated: checksums
// and, under Prefixed, tail shape are the consumer's to check, so that
// damaged entries are rejected with accounting rather than silently
// dropped here. The decoded tails of the whole block share one backing
// array, capped per entry.
func DecodeEntries(c *Cursor, count int, layout TailLayout) []telemetry.Entry {
	return DecodeEntriesInto(nil, c, count, layout)
}

// DecodeEntriesInto is DecodeEntries writing the entries over dst's
// array when its capacity holds count of them, so a caller that copies each
// block's entries out before decoding the next reuses one array for
// every block. Keys and tails are fresh on every call, never shared with
// dst's old entries or with c's buffer. It returns nil on damage.
func DecodeEntriesInto(dst []telemetry.Entry, c *Cursor, count int, layout TailLayout) []telemetry.Entry {
	if count < 0 {
		c.Failf("negative entry count %d", count)
	}
	// Zero entries are zero bytes; a count the input cannot hold is
	// refused before anything is sized by it.
	if count <= 0 || c.Fits(uint64(count), math.MaxInt, layout.minEntryBytes(), "entries") == 0 {
		return nil
	}
	nJobs := c.Uvarint()
	if nJobs == 0 || nJobs > uint64(count) {
		c.Failf("directory claims %d jobs for %d entries", nJobs, count)
		return nil
	}
	jobs := readDirectory(c, int(nJobs))
	if jobs == nil {
		return nil
	}
	// Every field of every entry is written below before a successful
	// return, so a reused array needs no clearing.
	entries := dst[:0]
	if cap(entries) < count {
		entries = make([]telemetry.Entry, count)
	}
	entries = entries[:count]
	for i := range entries {
		idx := c.Uvarint()
		if idx >= nJobs {
			c.Failf("job index %d out of directory", idx)
			return nil
		}
		entries[i].Key = jobs[idx]
	}
	ts := int64(0)
	for i := range entries {
		ts += c.Varint()
		entries[i].TimestampSec = ts
	}
	for i := range entries {
		entries[i].IntervalMinutes = c.F64()
	}
	for i := range entries {
		entries[i].WSSPages = c.Uvarint()
	}
	for i := range entries {
		entries[i].TotalPages = c.Uvarint()
	}
	if layout.width > 0 {
		layout.readFixedTails(c, entries)
	} else {
		readPrefixedTails(c, entries)
	}
	for i := range entries {
		entries[i].CompressibleFrac = c.F64()
	}
	for i := range entries {
		entries[i].Checksum = c.U64()
	}
	if c.Err() != nil {
		return nil
	}
	return entries
}

// readDirectory reads n job keys as ReadJobKey would, but copies their
// bytes out as one string, each key field a substring of it: one
// allocation for the directory instead of three per job, and no key
// aliases the cursor's buffer. A field equal to the same field of the key
// before it — the cluster and machine of a report's jobs — is not copied
// again but shares that key's substring. The first pass only checks and
// skips the fields, so a damaged directory fails exactly where ReadJobKey
// would and nil is returned; the later passes re-read checked fields.
func readDirectory(c *Cursor, n int) []telemetry.JobKey {
	base, total := c.pos, 0
	f := fields{c: c}
	for range 3 * n {
		if _, lo, hi, repeat := f.next(); !repeat {
			total += hi - lo
		}
	}
	if c.Err() != nil {
		return nil
	}
	var b strings.Builder
	b.Grow(total)
	d := Cursor{buf: c.buf[:c.pos], pos: base}
	f = fields{c: &d}
	for range 3 * n {
		if _, lo, hi, repeat := f.next(); !repeat {
			b.Write(d.buf[lo:hi])
		}
	}
	dir, off := b.String(), 0
	jobs := make([]telemetry.JobKey, n)
	var key [3]string
	d = Cursor{buf: c.buf[:c.pos], pos: base}
	f = fields{c: &d}
	for i := range 3 * n {
		k, lo, hi, repeat := f.next()
		if !repeat {
			key[k] = dir[off : off+hi-lo]
			off += hi - lo
		}
		if k == 2 {
			jobs[i/3] = telemetry.JobKey{Cluster: key[0], Machine: key[1], Job: key[2]}
		}
	}
	return jobs
}

// fields reads job key fields from c in order: cluster, machine, job,
// then the next key's.
type fields struct {
	c    *Cursor
	i    int
	last [3][2]int // each column's bounds in the key before
}

// next reads one field and returns its column (0 cluster, 1 machine,
// 2 job), its bytes' bounds in c's buffer and whether it repeats the same
// column of the key before it.
func (f *fields) next() (k, lo, hi int, repeat bool) {
	k = f.i % 3
	f.i++
	lo, hi = f.c.strSpan(math.MaxInt)
	p := f.last[k]
	f.last[k] = [2]int{lo, hi}
	return k, lo, hi, string(f.c.buf[p[0]:p[1]]) == string(f.c.buf[lo:hi])
}

// readFixedTails reads both tail columns into one exactly-sized arena,
// each entry's cold and promo tails adjacent.
func (l TailLayout) readFixedTails(c *Cursor, entries []telemetry.Entry) {
	w := l.width
	// Every value is at least one byte: a column pair that cannot fit
	// what is left is refused before the arena is sized by it. (count is
	// already bounded by the input length, so the product cannot wrap.)
	if 2*len(entries)*w > c.Remaining() {
		c.Failf("%d entries x %d tails cannot fit %d bytes", len(entries), 2*w, c.Remaining())
		return
	}
	arena := make([]uint64, 2*len(entries)*w)
	for col := 0; col < 2; col++ {
		for i := range entries {
			lo := (2*i + col) * w
			t := arena[lo : lo+w : lo+w]
			for j := range t {
				d := c.Uvarint()
				if j == 0 {
					t[0] = d
					continue
				}
				if d > t[j-1] {
					c.Failf("tail decrement underflows")
					return
				}
				t[j] = t[j-1] - d
			}
			if col == 0 {
				entries[i].ColdTails = t
			} else {
				entries[i].PromoTails = t
			}
		}
	}
}

// readPrefixedTails reads both tail columns into one arena grown as the
// values arrive; subslices are cut only after both columns are read, so
// regrowth cannot orphan them. While every entry has the first entry's
// tail count, each column's offset is its index times that count, and
// the offset table is built only once a count differs.
func readPrefixedTails(c *Cursor, entries []telemetry.Entry) {
	count := len(entries)
	// Entries in practice share one threshold set, so the first entry's
	// tail count sizes the arena up front — clamped by the bytes actually
	// present, since every arena value consumes at least one of them.
	arenaCap := 0
	if n0, sz := binary.Uvarint(c.buf[c.pos:]); sz > 0 && n0 <= MaxTails {
		arenaCap = 2 * count * int(n0)
		if rem := c.Remaining(); arenaCap > rem {
			arenaCap = rem
		}
	}
	arena := make([]uint64, 0, arenaCap)
	var offs []int // nil while every column has width values
	width := 0
	for i := 0; i < 2*count; i++ {
		n := c.Fits(c.Uvarint(), MaxTails, 1, "tail sums")
		if i == 0 {
			width = n
		}
		if offs == nil && n != width {
			offs = make([]int, i+1, 2*count+1)
			for k := range offs {
				offs[k] = k * width
			}
		}
		arena = c.AppendUvarints(arena, n)
		if offs != nil {
			offs = append(offs, len(arena))
		}
	}
	if c.Err() != nil {
		return
	}
	off := func(k int) int {
		if offs == nil {
			return k * width
		}
		return offs[k]
	}
	for i := range entries {
		lo, hi := off(i), off(i+1)
		entries[i].ColdTails = arena[lo:hi:hi]
		lo, hi = off(count+i), off(count+i+1)
		entries[i].PromoTails = arena[lo:hi:hi]
	}
}
