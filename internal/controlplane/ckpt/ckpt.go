// Package ckpt implements the control plane's durable checkpoint: a
// versioned on-disk snapshot of everything a Controller has learned —
// the agent registry (parameters, epochs, queued telemetry), the open
// tuning window, the incumbent, the round history, and the lifetime
// accounting counters — so a restarted sdfmd resumes the campaign
// instead of forgetting days of tuning.
//
// The format follows the repo's tracestore/wire discipline: a magic +
// version header, self-describing sections that are each
// CRC32-Castagnoli-checksummed, telemetry entries in the module's one
// entry-column block (package colfmt), and a bounds-checked decoder that
// survives arbitrary bytes (it is fuzzed — FuzzDecodeCheckpoint). Snapshot
// encoding is deterministic: the same state always produces the same
// bytes, so checkpoint equality is state equality.
//
// # File layout (version 2)
//
//	magic    "SDFMCP" (6 bytes)
//	version  uint16 LE
//	gen      uint64 LE (checkpoint generation, monotonic per directory)
//	sections uint32 LE (section count; every section exactly once)
//	section* :=
//	  id     uint8
//	  length uint32 LE (payload bytes)
//	  payload
//	  crc    uint32 LE, CRC32-Castagnoli over id + length + payload
//	EOF exactly after the last section
//
// Sections (all integers varint/uvarint, floats float64 LE, strings
// uvarint length + bytes, telemetry entries in colfmt's entry-column
// block with Prefixed tails — verbatim, damaged ones included, so what
// was queued is still rejected with accounting after a restore):
//
//	1 incumbent  deployed params (K, S), assignment epoch
//	2 window     telemetry clock, then one entry block holding the open
//	             tuning window in ingest order
//	3 agents     registry columns: IDs, params, epochs, last-report
//	             times, per-agent accounting, queue lengths, then one
//	             entry block holding every queued entry in agent order
//	4 rounds     completed tuning rounds, oldest first
//	5 counters   lifetime ingest accounting totals
//
// Nothing the entries determine is stored beside them: the window's
// bounds and size are read off the entries on restore. Version 1 also
// carried a sharded per-job directory nothing read; this build refuses
// such a file with ErrUnsupportedVersion and Restore skips it.
//
// A torn or damaged file — truncation, a bad CRC, counts that cannot
// fit the bytes present, a (K, S) that core.Params.Validate refuses, an
// empty or duplicate agent ID, a window entry that fails validation
// against telemetry.DefaultThresholds or its checksum — fails decode
// with an error wrapping ErrCorrupt; Restore then falls
// back to the next-older generation with accounting, so one bad write
// never costs more than one checkpoint interval of learned state.
package ckpt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"time"

	"sdfm/internal/core"
	"sdfm/internal/telemetry"
	"sdfm/internal/telemetry/colfmt"
)

// Magic opens every checkpoint file.
const Magic = "SDFMCP"

// Version is the layout version this package writes.
const Version = 2

// Sentinel errors callers can branch on with errors.Is.
var (
	// ErrCorrupt is returned for any checkpoint the decoder cannot
	// accept: truncation, a failed CRC, or structural damage.
	ErrCorrupt = errors.New("ckpt: corrupt checkpoint")
	// ErrUnsupportedVersion is wrapped when a file carries a layout
	// version this build does not understand.
	ErrUnsupportedVersion = errors.New("ckpt: unsupported checkpoint version")
)

// Section IDs, one per columnar section.
const (
	secIncumbent = 1
	secWindow    = 2
	secAgents    = 3
	secRounds    = 4
	secCounters  = 5

	numSections = 5
)

// Structural limits: a hostile file must not force unbounded work or
// allocation before its claims are checked against the bytes present.
const (
	headerLen = 6 + 2 + 8 + 4 // magic, version, generation, section count

	maxSectionBytes = 1 << 30
	maxAgents       = 1 << 20
	maxRounds       = 1 << 20
	maxStringLen    = 1 << 10
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Agent is one registered agent's state: its identity, the parameter
// assignment it is running, its report accounting, and the telemetry it
// has reported but the controller has not yet drained (so acked entries
// survive a restart instead of dying in a queue). The controller's
// registry holds these live, each guarded by its lock stripe; a Snapshot
// holds copies.
type Agent struct {
	ID      string
	Params  core.Params
	Epoch   int64
	LastTS  int64  // newest reported entry timestamp
	Reports uint64 // reports received, lifetime
	Dropped uint64 // backpressure drops, lifetime
	Queue   []telemetry.Entry
}

// Round is the outcome of one tuning round: the window it judged, the
// GP-bandit's candidate, and the staged-rollout decision. It is the
// controller's round record (controlplane.RoundReport), served as JSON by
// /v1/round and /statusz, and the checkpoint's rounds section; the counts
// are varints on disk.
type Round struct {
	Round          int   `json:"round"`
	WindowStartSec int64 `json:"window_start_sec"`
	WindowEndSec   int64 `json:"window_end_sec"`
	Entries        int   `json:"entries"`
	Jobs           int   `json:"jobs"`
	TunerEvals     int   `json:"tuner_evals"`

	Candidate core.Params `json:"candidate"`
	Chosen    core.Params `json:"chosen"`
	Accepted  bool        `json:"accepted"`
	// RolledBackAt names the failing deployment ring ("" on acceptance).
	RolledBackAt string `json:"rolled_back_at,omitempty"`
	Reason       string `json:"reason"`

	// Coverage and P98Rate are the best candidate's full-window results;
	// GapIntervals and Completeness carry the window's telemetry holes
	// (drop faults, agent restarts) into controller state, so a rollout
	// decision is always paired with how complete the data behind it was.
	Coverage     float64 `json:"coverage"`
	P98Rate      float64 `json:"p98_rate"`
	GapIntervals int     `json:"gap_intervals"`
	Completeness float64 `json:"completeness"`

	Err string `json:"err,omitempty"`
}

// Counters are the controller's lifetime ingest accounting totals
// (controlplane.IngestStats, the "ingest" object of /statusz).
type Counters struct {
	Reports             uint64 `json:"reports"`
	Received            uint64 `json:"received"`
	Ingested            uint64 `json:"ingested"`
	DroppedBackpressure uint64 `json:"dropped_backpressure"`
	RejectedCorrupt     uint64 `json:"rejected_corrupt"`
	RejectedInvalid     uint64 `json:"rejected_invalid"`
}

// Snapshot is one checkpoint's portable content: everything needed to
// boot a controller that continues the campaign byte-identically.
type Snapshot struct {
	// Generation numbers checkpoints within a directory; Restore picks
	// the newest generation that decodes.
	Generation uint64
	// TelemetrySec is the newest telemetry timestamp the controller had
	// ingested at snapshot time — the telemetry clock the checkpoint
	// cadence runs on.
	TelemetrySec int64
	Incumbent    core.Params
	Epoch        int64
	// Window is the open tuning window: every entry ingested since the
	// last round cut, in ingest order.
	Window []telemetry.Entry
	// Agents is the registry, sorted by ID.
	Agents []Agent
	Rounds []Round
	// Counters holds the lifetime totals (per-agent accounting lives on
	// the Agents).
	Counters Counters
}

// QueuedEntries sums the agents' undrained queue depths.
func (s *Snapshot) QueuedEntries() int {
	n := 0
	for i := range s.Agents {
		n += len(s.Agents[i].Queue)
	}
	return n
}

// Encode appends the checkpoint encoding of s to dst and returns the
// extended slice. Encoding is deterministic: equal snapshots produce
// equal bytes.
func Encode(dst []byte, s *Snapshot) ([]byte, error) {
	dst = append(dst, Magic...)
	dst = binary.LittleEndian.AppendUint16(dst, Version)
	dst = binary.LittleEndian.AppendUint64(dst, s.Generation)
	dst = binary.LittleEndian.AppendUint32(dst, numSections)

	var err error
	var payload []byte
	appendSection := func(id uint8, enc func([]byte) ([]byte, error)) {
		if err != nil {
			return
		}
		if payload, err = enc(payload[:0]); err != nil {
			return
		}
		base := len(dst)
		dst = append(dst, id)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
		dst = append(dst, payload...)
		dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(dst[base:], castagnoli))
	}
	appendSection(secIncumbent, s.appendIncumbent)
	appendSection(secWindow, s.appendWindow)
	appendSection(secAgents, s.appendAgents)
	appendSection(secRounds, s.appendRounds)
	appendSection(secCounters, s.appendCounters)
	if err != nil {
		return nil, err
	}
	return dst, nil
}

func appendParams(dst []byte, p core.Params) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(p.K))
	return binary.AppendVarint(dst, int64(p.S))
}

// clampString keeps free-form text (round reasons, error strings) within
// the decoder's string cap; truncation is deterministic, so it cannot
// break checkpoint-equality arguments.
func clampString(s string) string {
	if len(s) > maxStringLen {
		return s[:maxStringLen]
	}
	return s
}

func (s *Snapshot) appendIncumbent(dst []byte) ([]byte, error) {
	dst = appendParams(dst, s.Incumbent)
	return binary.AppendVarint(dst, s.Epoch), nil
}

func (s *Snapshot) appendWindow(dst []byte) ([]byte, error) {
	dst = binary.AppendVarint(dst, s.TelemetrySec)
	dst = binary.AppendUvarint(dst, uint64(len(s.Window)))
	return colfmt.AppendEntries(dst, s.Window, colfmt.Prefixed)
}

func (s *Snapshot) appendAgents(dst []byte) ([]byte, error) {
	if len(s.Agents) > maxAgents {
		return nil, fmt.Errorf("ckpt: %d agents exceed the format limit", len(s.Agents))
	}
	dst = binary.AppendUvarint(dst, uint64(len(s.Agents)))
	for i := range s.Agents {
		if len(s.Agents[i].ID) > maxStringLen {
			return nil, fmt.Errorf("ckpt: agent id is %d bytes", len(s.Agents[i].ID))
		}
		dst = colfmt.AppendString(dst, s.Agents[i].ID)
	}
	for i := range s.Agents {
		dst = appendParams(dst, s.Agents[i].Params)
	}
	for i := range s.Agents {
		dst = binary.AppendVarint(dst, s.Agents[i].Epoch)
	}
	for i := range s.Agents {
		dst = binary.AppendVarint(dst, s.Agents[i].LastTS)
	}
	for i := range s.Agents {
		dst = binary.AppendUvarint(dst, s.Agents[i].Reports)
	}
	for i := range s.Agents {
		dst = binary.AppendUvarint(dst, s.Agents[i].Dropped)
	}
	queued := 0
	for i := range s.Agents {
		dst = binary.AppendUvarint(dst, uint64(len(s.Agents[i].Queue)))
		queued += len(s.Agents[i].Queue)
	}
	// One columnar entry block for every queued entry, in agent order;
	// the per-agent lengths above split it back apart on decode.
	all := make([]telemetry.Entry, 0, queued)
	for i := range s.Agents {
		all = append(all, s.Agents[i].Queue...)
	}
	return colfmt.AppendEntries(dst, all, colfmt.Prefixed)
}

func (s *Snapshot) appendRounds(dst []byte) ([]byte, error) {
	if len(s.Rounds) > maxRounds {
		return nil, fmt.Errorf("ckpt: %d rounds exceed the format limit", len(s.Rounds))
	}
	dst = binary.AppendUvarint(dst, uint64(len(s.Rounds)))
	for i := range s.Rounds {
		r := &s.Rounds[i]
		dst = binary.AppendVarint(dst, int64(r.Round))
		dst = binary.AppendVarint(dst, r.WindowStartSec)
		dst = binary.AppendVarint(dst, r.WindowEndSec)
		dst = binary.AppendVarint(dst, int64(r.Entries))
		dst = binary.AppendVarint(dst, int64(r.Jobs))
		dst = binary.AppendVarint(dst, int64(r.TunerEvals))
		dst = appendParams(dst, r.Candidate)
		dst = appendParams(dst, r.Chosen)
		if r.Accepted {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
		dst = colfmt.AppendString(dst, clampString(r.RolledBackAt))
		dst = colfmt.AppendString(dst, clampString(r.Reason))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(r.Coverage))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(r.P98Rate))
		dst = binary.AppendVarint(dst, int64(r.GapIntervals))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(r.Completeness))
		dst = colfmt.AppendString(dst, clampString(r.Err))
	}
	return dst, nil
}

func (s *Snapshot) appendCounters(dst []byte) ([]byte, error) {
	dst = binary.AppendUvarint(dst, s.Counters.Reports)
	dst = binary.AppendUvarint(dst, s.Counters.Received)
	dst = binary.AppendUvarint(dst, s.Counters.Ingested)
	dst = binary.AppendUvarint(dst, s.Counters.DroppedBackpressure)
	dst = binary.AppendUvarint(dst, s.Counters.RejectedCorrupt)
	return binary.AppendUvarint(dst, s.Counters.RejectedInvalid), nil
}

// readParams reads one (K, S) and fails the section on a value
// core.Params.Validate refuses: restored parameters go to agents and into
// the §4.3 controller, so the file is not believed about them.
func readParams(c *colfmt.Cursor) core.Params {
	p := core.Params{K: c.F64(), S: time.Duration(c.Varint())}
	if err := p.Validate(); err != nil {
		c.Failf("%v", err)
	}
	return p
}

// Decode parses one checkpoint file. Any structural damage returns an
// error wrapping ErrCorrupt (or ErrUnsupportedVersion for a future
// layout); the function never panics on arbitrary input, and its
// allocations are bounded by the input size.
func Decode(buf []byte) (*Snapshot, error) {
	if len(buf) < headerLen {
		return nil, fmt.Errorf("%w: %d-byte file", ErrCorrupt, len(buf))
	}
	if string(buf[:6]) != Magic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if v := binary.LittleEndian.Uint16(buf[6:]); v != Version {
		return nil, fmt.Errorf("%w: file is version %d, this build reads %d", ErrUnsupportedVersion, v, Version)
	}
	s := &Snapshot{Generation: binary.LittleEndian.Uint64(buf[8:])}
	nSections := binary.LittleEndian.Uint32(buf[16:])
	if nSections != numSections {
		return nil, fmt.Errorf("%w: %d sections, this layout has %d", ErrCorrupt, nSections, numSections)
	}
	pos := headerLen
	seen := [numSections + 1]bool{}
	for i := uint32(0); i < nSections; i++ {
		if pos+1+4 > len(buf) {
			return nil, fmt.Errorf("%w: truncated", ErrCorrupt)
		}
		id := buf[pos]
		length := binary.LittleEndian.Uint32(buf[pos+1:])
		if length > maxSectionBytes || int(length) > len(buf)-pos-1-4-4 {
			return nil, fmt.Errorf("%w: section %d claims %d bytes", ErrCorrupt, id, length)
		}
		end := pos + 1 + 4 + int(length)
		want := binary.LittleEndian.Uint32(buf[end:])
		if got := crc32.Checksum(buf[pos:end], castagnoli); got != want {
			return nil, fmt.Errorf("%w: section %d CRC %#x, content digests to %#x", ErrCorrupt, id, want, got)
		}
		c := colfmt.NewCursor(buf[pos+1+4 : end])
		pos = end + 4
		if id < 1 || id > numSections {
			return nil, fmt.Errorf("%w: unknown section id %d", ErrCorrupt, id)
		}
		if seen[id] {
			return nil, fmt.Errorf("%w: duplicate section id %d", ErrCorrupt, id)
		}
		seen[id] = true
		switch id {
		case secIncumbent:
			s.decodeIncumbent(&c)
		case secWindow:
			s.decodeWindow(&c)
		case secAgents:
			s.decodeAgents(&c)
		case secRounds:
			s.decodeRounds(&c)
		case secCounters:
			s.decodeCounters(&c)
		}
		// One check per section: the cursor remembers the first damaged
		// read, and a sound section ends exactly at its claimed length.
		if err := c.Done(); err != nil {
			return nil, fmt.Errorf("%w: section %d: %v", ErrCorrupt, id, err)
		}
	}
	if pos != len(buf) {
		return nil, fmt.Errorf("%w: %d trailing bytes after last section", ErrCorrupt, len(buf)-pos)
	}
	for id := 1; id <= numSections; id++ {
		if !seen[id] {
			return nil, fmt.Errorf("%w: missing section id %d", ErrCorrupt, id)
		}
	}
	return s, nil
}

func (s *Snapshot) decodeIncumbent(c *colfmt.Cursor) {
	s.Incumbent = readParams(c)
	s.Epoch = c.Varint()
}

// decodeWindow reads the window and fails the section on an entry the
// controller's Tick would have refused — one that fails validation
// against the default threshold set, or its checksum — since a window
// entry is never checked again before a round compiles it.
func (s *Snapshot) decodeWindow(c *colfmt.Cursor) {
	s.TelemetrySec = c.Varint()
	s.Window = colfmt.DecodeEntries(c, c.Count(math.MaxInt32, 0, "window entries"), colfmt.Prefixed)
	if c.Err() != nil {
		return
	}
	sums := telemetry.AppendChecksums(nil, s.Window)
	for i := range s.Window {
		e := &s.Window[i]
		err := e.Validate(len(telemetry.DefaultThresholds))
		if err == nil && sums[i] != e.Checksum {
			err = e.ChecksumError(sums[i])
		}
		if err != nil {
			c.Failf("window entry %d: %v", i, err)
			return
		}
	}
}

func (s *Snapshot) decodeAgents(c *colfmt.Cursor) {
	n := c.Count(maxAgents, 1, "agents")
	if n == 0 {
		return
	}
	agents := make([]Agent, n)
	seen := make(map[string]bool, n)
	for i := range agents {
		id := c.Str(maxStringLen)
		if c.Err() == nil && (id == "" || seen[id]) {
			c.Failf("agent %d has an empty or duplicate id %q", i, id)
		}
		seen[id] = true
		agents[i].ID = id
	}
	for i := range agents {
		agents[i].Params = readParams(c)
	}
	for i := range agents {
		agents[i].Epoch = c.Varint()
	}
	for i := range agents {
		agents[i].LastTS = c.Varint()
	}
	for i := range agents {
		agents[i].Reports = c.Uvarint()
	}
	for i := range agents {
		agents[i].Dropped = c.Uvarint()
	}
	// The queue lengths size nothing themselves; their sum is checked
	// against the bytes present when the entry block is decoded.
	qlens := make([]int, n)
	queued := 0
	for i := range qlens {
		qlens[i] = c.Count(math.MaxInt32, 0, "queued entries")
		queued += qlens[i]
	}
	all := colfmt.DecodeEntries(c, queued, colfmt.Prefixed)
	if c.Err() != nil {
		return
	}
	off := 0
	for i := range agents {
		if qlens[i] > 0 {
			agents[i].Queue = all[off : off+qlens[i] : off+qlens[i]]
		}
		off += qlens[i]
	}
	s.Agents = agents
}

func (s *Snapshot) decodeRounds(c *colfmt.Cursor) {
	n := c.Count(maxRounds, 1, "rounds")
	if n == 0 {
		return
	}
	s.Rounds = make([]Round, n)
	for i := range s.Rounds {
		r := &s.Rounds[i]
		r.Round = int(c.Varint())
		r.WindowStartSec = c.Varint()
		r.WindowEndSec = c.Varint()
		r.Entries = int(c.Varint())
		r.Jobs = int(c.Varint())
		r.TunerEvals = int(c.Varint())
		r.Candidate = readParams(c)
		r.Chosen = readParams(c)
		b := c.Byte()
		if b > 1 {
			c.Failf("round %d accepted flag %d", i, b)
		}
		r.Accepted = b == 1
		r.RolledBackAt = c.Str(maxStringLen)
		r.Reason = c.Str(maxStringLen)
		r.Coverage = c.F64()
		r.P98Rate = c.F64()
		r.GapIntervals = int(c.Varint())
		r.Completeness = c.F64()
		r.Err = c.Str(maxStringLen)
	}
}

func (s *Snapshot) decodeCounters(c *colfmt.Cursor) {
	s.Counters.Reports = c.Uvarint()
	s.Counters.Received = c.Uvarint()
	s.Counters.Ingested = c.Uvarint()
	s.Counters.DroppedBackpressure = c.Uvarint()
	s.Counters.RejectedCorrupt = c.Uvarint()
	s.Counters.RejectedInvalid = c.Uvarint()
}
