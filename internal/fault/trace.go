package fault

import (
	"math/rand"
	"time"

	"sdfm/internal/telemetry"
)

// TraceDamage reports what ApplyToTrace did.
type TraceDamage struct {
	Dropped   int // entries removed by TelemetryDrop windows
	Corrupted int // entries bit-flipped by TelemetryCorrupt windows
}

// TraceFilter applies a plan's telemetry-drop and telemetry-corrupt
// windows entry by entry — the streaming counterpart of ApplyToTrace,
// usable inline in an ingest pipeline that never holds the whole trace.
type TraceFilter struct {
	plan *Plan
	dmg  TraceDamage
}

// NewTraceFilter builds a filter for the plan; a nil or empty plan
// yields a pass-through filter.
func NewTraceFilter(p *Plan) *TraceFilter {
	if p != nil && p.Empty() {
		p = nil
	}
	return &TraceFilter{plan: p}
}

// Apply runs one entry through the plan's telemetry windows. It returns
// the (possibly corrupted) entry and false when a drop window swallowed
// it. The mutation is deterministic — a perturbation derived from the
// entry's own digest — so the same plan applied to the same entries
// always yields the same bytes, and the stale checksum it leaves behind
// is always detectable.
func (f *TraceFilter) Apply(e telemetry.Entry) (telemetry.Entry, bool) {
	if f.plan == nil {
		return e, true
	}
	ts := time.Duration(e.TimestampSec) * time.Second
	if matches(f.plan, TelemetryDrop, e.Key.Machine, ts) {
		f.dmg.Dropped++
		return e, false
	}
	if matches(f.plan, TelemetryCorrupt, e.Key.Machine, ts) && len(e.ColdTails) > 0 {
		// Flip bits derived from the entry's own content so the
		// damage is reproducible and always checksum-detectable.
		e.ColdTails = append([]uint64(nil), e.ColdTails...)
		e.ColdTails[0] ^= e.ComputeChecksum() | 1
		f.dmg.Corrupted++
	}
	return e, true
}

// Damage reports what the filter has done so far.
func (f *TraceFilter) Damage() TraceDamage { return f.dmg }

// ApplyToTrace applies the plan's telemetry faults to an at-rest trace:
// entries inside TelemetryDrop windows are removed (the agent never got
// them out) and entries inside TelemetryCorrupt windows have their tails
// perturbed without updating the checksum, exactly the damage Scrub and
// ingest validation are built to catch.
//
// Node-agent simulations already drop live exports themselves (the
// injector suppresses Collector.Record), so for machine-accurate traces
// only corruption applies here; drop windows matter for statistically
// generated fleet traces, which have no live agent.
func ApplyToTrace(p *Plan, trace *telemetry.Trace) TraceDamage {
	if p.Empty() || trace == nil {
		return TraceDamage{}
	}
	f := NewTraceFilter(p)
	kept := trace.Entries[:0]
	for i := range trace.Entries {
		e, keep := f.Apply(trace.Entries[i])
		if keep {
			kept = append(kept, e)
		}
	}
	trace.Entries = kept
	return f.Damage()
}

// FlipBytes deterministically XOR-flips n bytes of buf in place (seeded,
// so tests and the tracestore corrupt tool reproduce exactly), returning
// the flipped offsets. Offsets at or past len(buf) are skipped, never
// panicked on; flipping zero-length buffers is a no-op.
func FlipBytes(buf []byte, seed int64, n int) []int {
	if len(buf) == 0 || n <= 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5df0d6f1))
	offsets := make([]int, 0, n)
	for i := 0; i < n; i++ {
		off := rng.Intn(len(buf))
		buf[off] ^= byte(1 + rng.Intn(255)) // never a zero XOR: always a real flip
		offsets = append(offsets, off)
	}
	return offsets
}

// matches reports whether any event of the kind covers (machine, ts).
func matches(p *Plan, kind Kind, machine string, ts time.Duration) bool {
	for _, e := range p.Events {
		if e.Kind != kind {
			continue
		}
		if e.Machine != "" && e.Machine != machine {
			continue
		}
		if e.At <= ts && ts < e.At+e.Duration {
			return true
		}
	}
	return false
}
