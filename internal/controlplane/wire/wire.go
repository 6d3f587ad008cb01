// Package wire implements the control plane's binary telemetry wire
// format: a versioned, CRC-checked batch codec for agent→controller
// report frames, served over HTTP as Content-Type
// "application/x-sdfm-telemetry". It is the one report encoding: the
// server refuses any other report Content-Type with 415.
//
// The entries travel in the module's one entry-column block (package
// colfmt); this package owns only the frame around it. It is a
// *transport* frame, not a storage chunk: no compression (the hot ingest
// path trades a few wire bytes for zero compress/decompress CPU), no
// footer index, and the block's Prefixed tail layout — raw varints rather
// than monotone decrements — so that damaged entries (bit-flipped content
// with stale checksums) survive the wire intact and are rejected with
// accounting at the controller's Tick validation.
//
// # Frame layout (version 1)
//
//	magic    "SDWB" (4 bytes)
//	version  uint16 LE
//	agentID  uvarint length + bytes
//	count    uint32 LE (entry count)
//	payload  colfmt entry-column block, Prefixed tails
//	crc      uint32 LE, CRC32-Castagnoli over every preceding frame byte
//
// Every decode is bounds-checked: claimed counts are validated against
// the bytes actually present before any allocation, so a hostile frame
// errors instead of panicking or ballooning memory.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"sdfm/internal/telemetry"
	"sdfm/internal/telemetry/colfmt"
)

// ContentType is the HTTP media type of a report body, the only one
// /v1/report accepts; any other report Content-Type gets 415.
const ContentType = "application/x-sdfm-telemetry"

// Version is the frame layout version this package writes. A frame of
// any other version is refused with ErrUnsupportedVersion, which the
// server answers with 415.
const Version = 1

const frameMagic = "SDWB"

const (
	// headerMin is the smallest possible frame: magic, version, empty
	// agent id, zero count, CRC.
	headerMin = 4 + 2 + 1 + 4 + 4

	// maxAgentIDLen bounds the agent identifier; anything longer is a
	// broken or hostile client.
	maxAgentIDLen = 1 << 10

	// maxBatchEntries bounds a single frame's entry count.
	maxBatchEntries = 1 << 21
)

// ErrCorrupt is returned for any frame the decoder cannot accept:
// truncation, a failed CRC, counts that cannot fit the bytes present, or
// structural damage inside the payload.
var ErrCorrupt = errors.New("wire: corrupt telemetry frame")

// ErrUnsupportedVersion is wrapped when a frame carries a layout version
// this build does not understand.
var ErrUnsupportedVersion = errors.New("wire: unsupported frame version")

// ErrTooLarge is returned by the encoder when a batch exceeds the
// format's structural limits; the caller must send a smaller batch.
var ErrTooLarge = errors.New("wire: batch exceeds format limits")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// AppendReportBatch appends one encoded report frame for (agentID,
// entries) to dst and returns the extended slice. Reusing dst across
// calls makes the encode path allocation-free once the buffer has grown
// to the steady-state batch size. Entries are encoded verbatim —
// including invalid shapes and stale checksums — so the controller's
// ingest validation sees exactly what the agent sent.
func AppendReportBatch(dst []byte, agentID string, entries []telemetry.Entry) ([]byte, error) {
	if len(agentID) > maxAgentIDLen {
		return dst, fmt.Errorf("%w: agent id is %d bytes", ErrTooLarge, len(agentID))
	}
	if len(entries) > maxBatchEntries {
		return dst, fmt.Errorf("%w: %d entries in one batch", ErrTooLarge, len(entries))
	}
	base := len(dst)
	dst = append(dst, frameMagic...)
	dst = binary.LittleEndian.AppendUint16(dst, Version)
	dst = colfmt.AppendString(dst, agentID)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(entries)))
	dst, err := colfmt.AppendEntries(dst, entries, colfmt.Prefixed)
	if err != nil {
		return dst[:base], fmt.Errorf("%w: %v", ErrTooLarge, err)
	}
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(dst[base:], castagnoli)), nil
}

// DecodeReportBatch decodes one report frame. Any structural damage —
// truncation, a CRC mismatch, counts that cannot fit the bytes present —
// returns an error wrapping ErrCorrupt (or ErrUnsupportedVersion for a
// future layout); the function never panics on arbitrary input.
// Entry-content validation (tail monotonicity, checksums) is deliberately
// not performed here: damaged entries must reach the controller's Tick
// validation to be rejected with accounting.
func DecodeReportBatch(buf []byte) (agentID string, entries []telemetry.Entry, err error) {
	return DecodeReportBatchInto(nil, buf)
}

// DecodeReportBatchInto is DecodeReportBatch decoding the entries over
// dst's array when it is large enough (colfmt.DecodeEntriesInto): a
// server that copies each frame's entries out before decoding the next
// reuses one array. Nothing it returns aliases buf.
func DecodeReportBatchInto(dst []telemetry.Entry, buf []byte) (agentID string, entries []telemetry.Entry, err error) {
	if len(buf) < headerMin {
		return "", nil, fmt.Errorf("%w: %d-byte frame", ErrCorrupt, len(buf))
	}
	if string(buf[:4]) != frameMagic {
		return "", nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if v := binary.LittleEndian.Uint16(buf[4:]); v != Version {
		return "", nil, fmt.Errorf("%w: frame is version %d, this build reads %d", ErrUnsupportedVersion, v, Version)
	}
	body, tail := buf[:len(buf)-4], buf[len(buf)-4:]
	if got, want := crc32.Checksum(body, castagnoli), binary.LittleEndian.Uint32(tail); got != want {
		return "", nil, fmt.Errorf("%w: frame CRC %#x, content digests to %#x", ErrCorrupt, want, got)
	}
	c := colfmt.NewCursor(body[6:])
	agentID = c.Str(maxAgentIDLen)
	count := c.Fits(uint64(c.U32()), maxBatchEntries, 0, "entries")
	entries = colfmt.DecodeEntriesInto(dst, &c, count, colfmt.Prefixed)
	if err := c.Done(); err != nil {
		return "", nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return agentID, entries, nil
}
