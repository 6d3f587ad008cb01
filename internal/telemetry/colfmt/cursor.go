package colfmt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
)

var errTruncated = errors.New("truncated")

// Cursor is a bounds-checked reader over untrusted bytes. Reads never
// panic; the first failure is remembered, every later read returns zero
// and consumes nothing, and Err or Done reports it — so a decoder reads
// its fields in a straight line and checks once. Because a failed cursor
// has no bytes left, Count rejects every non-zero claim after a failure
// and loops bounded by a Count stay bounded.
type Cursor struct {
	buf []byte
	pos int
	err error
}

// NewCursor starts a cursor at the head of buf.
func NewCursor(buf []byte) Cursor { return Cursor{buf: buf} }

// Err returns the first failure, or nil.
func (c *Cursor) Err() error { return c.err }

// Remaining is the number of unread bytes (zero once a read has failed).
func (c *Cursor) Remaining() int { return len(c.buf) - c.pos }

// Done returns the first failure, or an error if unread bytes remain: a
// well-formed block ends exactly where its container says it does.
func (c *Cursor) Done() error {
	if c.err == nil && c.pos != len(c.buf) {
		return fmt.Errorf("%d trailing bytes", len(c.buf)-c.pos)
	}
	return c.err
}

// Failf records structural damage the caller found in values it read (an
// index outside its directory, an impossible flag).
func (c *Cursor) Failf(format string, args ...any) {
	c.fail(fmt.Errorf(format, args...))
}

func (c *Cursor) fail(err error) {
	if c.err == nil {
		c.err = err
	}
	c.pos = len(c.buf)
}

// Uvarint reads one unsigned varint.
func (c *Cursor) Uvarint() uint64 {
	v, n := binary.Uvarint(c.buf[c.pos:])
	if n <= 0 {
		c.fail(errTruncated)
		return 0
	}
	c.pos += n
	return v
}

// AppendUvarints appends n unsigned varints to dst in one loop over the
// buffer. It is exactly n Uvarint calls: the same values, zeros from the
// first failure on, the same error and the same final position.
func (c *Cursor) AppendUvarints(dst []uint64, n int) []uint64 {
	if n <= 0 {
		return dst
	}
	base := len(dst)
	dst = slices.Grow(dst, n)[:base+n]
	out := dst[base:]
	buf, pos := c.buf, c.pos
	for k := 0; k < len(out); {
		// One- and two-byte values — what a report's tail sums are, the
		// zeros of its upper thresholds above all — skip the loop, eight
		// one-byte values at a time when the next eight bytes are.
		if len(out)-k >= 8 && len(buf)-pos >= 8 {
			if w := binary.LittleEndian.Uint64(buf[pos:]); w&0x8080808080808080 == 0 {
				o := out[k : k+8 : k+8]
				o[0], o[1], o[2], o[3] = w&0xff, w>>8&0xff, w>>16&0xff, w>>24&0xff
				o[4], o[5], o[6], o[7] = w>>32&0xff, w>>40&0xff, w>>48&0xff, w>>56
				pos += 8
				k += 8
				continue
			}
		}
		if len(buf)-pos >= 2 {
			if b0, b1 := buf[pos], buf[pos+1]; b0 < 0x80 {
				out[k] = uint64(b0)
				pos++
				k++
				continue
			} else if b1 < 0x80 {
				out[k] = uint64(b0&0x7f) | uint64(b1)<<7
				pos += 2
				k++
				continue
			}
		}
		v, ok := uint64(0), false
		// binary.Uvarint's bounds: at most MaxVarintLen64 bytes, the last
		// of which may carry only the 64th bit.
		for s := uint(0); s < 64 && pos < len(buf); s += 7 {
			b := buf[pos]
			pos++
			if b < 0x80 {
				ok = s < 63 || b <= 1
				v |= uint64(b) << s
				break
			}
			v |= uint64(b&0x7f) << s
		}
		if !ok {
			c.fail(errTruncated)
			clear(out[k:])
			return dst
		}
		out[k] = v
		k++
	}
	c.pos = pos
	return dst
}

// Varint reads one zig-zag signed varint.
func (c *Cursor) Varint() int64 {
	v, n := binary.Varint(c.buf[c.pos:])
	if n <= 0 {
		c.fail(errTruncated)
		return 0
	}
	c.pos += n
	return v
}

// U64 reads a little-endian uint64.
func (c *Cursor) U64() uint64 {
	if c.Remaining() < 8 {
		c.fail(errTruncated)
		return 0
	}
	v := binary.LittleEndian.Uint64(c.buf[c.pos:])
	c.pos += 8
	return v
}

// F64 reads a little-endian IEEE-754 float64.
func (c *Cursor) F64() float64 { return math.Float64frombits(c.U64()) }

// U32 reads a little-endian uint32.
func (c *Cursor) U32() uint32 {
	if c.Remaining() < 4 {
		c.fail(errTruncated)
		return 0
	}
	v := binary.LittleEndian.Uint32(c.buf[c.pos:])
	c.pos += 4
	return v
}

// Byte reads one byte.
func (c *Cursor) Byte() byte {
	if c.Remaining() < 1 {
		c.fail(errTruncated)
		return 0
	}
	b := c.buf[c.pos]
	c.pos++
	return b
}

// Str reads a uvarint-length-prefixed string of at most max bytes. The
// bytes that remain bound the length whatever max is, so math.MaxInt
// means "no format limit".
func (c *Cursor) Str(max int) string {
	lo, hi := c.strSpan(max)
	return string(c.buf[lo:hi])
}

// strSpan reads what Str reads and returns where its bytes lie in the
// buffer instead of a copy of them; an empty span after a failure.
func (c *Cursor) strSpan(max int) (lo, hi int) {
	n := c.Uvarint()
	if n > uint64(max) {
		c.Failf("string claims %d bytes, limit %d", n, max)
		return 0, 0
	}
	if n > uint64(c.Remaining()) {
		c.fail(errTruncated)
		return 0, 0
	}
	lo = c.pos
	c.pos += int(n)
	return lo, c.pos
}

// Count reads a uvarint element count and checks it with Fits.
func (c *Cursor) Count(max, minBytes int, what string) int {
	return c.Fits(c.Uvarint(), max, minBytes, what)
}

// Fits is the guard every claimed count passes before anything is sized
// by it: n must not exceed max, and n elements of at least minBytes each
// must fit the bytes that remain (minBytes 0 skips that check for counts
// that size nothing). It returns n, or 0 after recording the failure.
func (c *Cursor) Fits(n uint64, max, minBytes int, what string) int {
	if n > uint64(max) {
		c.Failf("%s count %d exceeds limit %d", what, n, max)
		return 0
	}
	if minBytes > 0 && n > uint64(c.Remaining()/minBytes) {
		c.Failf("%d %s cannot fit %d bytes", n, what, c.Remaining())
		return 0
	}
	return int(n)
}

// AppendString appends s as a uvarint length and its bytes — what Str
// reads back.
func AppendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}
