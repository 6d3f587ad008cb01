package colfmt

import (
	"encoding/binary"
	"math"

	"sdfm/internal/telemetry"
)

// referenceDecodeEntries is DecodeEntries before its directory became one
// string and its tail offsets implicit: three strings per job through
// ReadJobKey, tails one Uvarint at a time, an offset per tail column. It
// is the oracle FuzzDecodeChunk holds DecodeEntries to — the same
// entries, the same error and the same cursor position on any input.
func referenceDecodeEntries(c *Cursor, count int, layout TailLayout) []telemetry.Entry {
	if count < 0 {
		c.Failf("negative entry count %d", count)
	}
	if count <= 0 || c.Fits(uint64(count), math.MaxInt, layout.minEntryBytes(), "entries") == 0 {
		return nil
	}
	nJobs := c.Uvarint()
	if nJobs == 0 || nJobs > uint64(count) {
		c.Failf("directory claims %d jobs for %d entries", nJobs, count)
		return nil
	}
	jobs := make([]telemetry.JobKey, nJobs)
	for i := range jobs {
		jobs[i] = ReadJobKey(c, math.MaxInt)
	}
	entries := make([]telemetry.Entry, count)
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
		referencePrefixedTails(c, entries)
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

func referencePrefixedTails(c *Cursor, entries []telemetry.Entry) {
	count := len(entries)
	arenaCap := 0
	if n0, sz := binary.Uvarint(c.buf[c.pos:]); sz > 0 && n0 <= MaxTails {
		arenaCap = 2 * count * int(n0)
		if rem := c.Remaining(); arenaCap > rem {
			arenaCap = rem
		}
	}
	arena := make([]uint64, 0, arenaCap)
	offs := make([]int, 1, 2*count+1)
	for i := 0; i < 2*count; i++ {
		n := c.Fits(c.Uvarint(), MaxTails, 1, "tail sums")
		for k := 0; k < n; k++ {
			arena = append(arena, c.Uvarint())
		}
		offs = append(offs, len(arena))
	}
	if c.Err() != nil {
		return
	}
	for i := range entries {
		entries[i].ColdTails = arena[offs[i]:offs[i+1]:offs[i+1]]
		entries[i].PromoTails = arena[offs[count+i]:offs[count+i+1]:offs[count+i+1]]
	}
}
