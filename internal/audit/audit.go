// Package audit catalogues the fleet's cheap, incrementally-checkable
// invariants and reports violations as structured findings. The paper's
// system earned production trust by staying consistent through every
// failure mode a warehouse-scale fleet throws at it (§5.2–§5.3); this
// package is the reproduction's correctness instrument for the same
// claim — the node agent runs the catalogue against live machine state
// each step when auditing is enabled, and the chaos harness
// (internal/chaos) searches fault plans for sequences that break it.
//
// The catalogue has two tiers. Cheap checks read only incrementally
// maintained counters and O(NumAges) histograms — byte conservation per
// memcg, age-census sums, zswap stored-bytes vs. arena usage, zsmalloc
// stats coherence — and are intended to run every step. Deep checks
// (mem.Memcg.VerifyIndexes, zswap.Pool.VerifyArena) recount everything
// from the raw columns at full-walk cost and run on a sparser cadence or
// at end of run. Node-level invariants that need machine internals
// (circuit-breaker and watchdog state-machine legality, counter
// monotonicity across restarts) live in package node but report through
// this package's Violation type and invariant names.
package audit

import (
	"errors"
	"fmt"
	"strings"

	"sdfm/internal/mem"
	"sdfm/internal/zsmalloc"
	"sdfm/internal/zswap"
)

// Config opts a machine (or every machine of a cluster) into invariant
// auditing. The zero value is disabled and costs one branch per step.
type Config struct {
	// Enabled turns the auditor on: the cheap catalogue runs every step.
	Enabled bool
	// DeepEverySteps additionally runs the full-recount deep checks every
	// this many steps; 0 disables them (they remain available on demand
	// via the Audit methods).
	DeepEverySteps int
}

// Invariant names, stable across releases so chaos findings and shrink
// signatures can be compared between runs. DESIGN.md's "Invariant
// catalogue" section documents each.
const (
	// InvMemConservation: resident + compressed == allocated pages per memcg.
	InvMemConservation = "mem/byte-conservation"
	// InvMemAgeCensus: the age histogram sums to the page count.
	InvMemAgeCensus = "mem/age-census-sum"
	// InvMemCompressedAges: the compressed-age histogram sums to the
	// compressed count and is bounded bucket-wise by the age histogram.
	InvMemCompressedAges = "mem/compressed-age-sum"
	// InvMemReclaimIndex: the reclaimable index never exceeds residency.
	InvMemReclaimIndex = "mem/reclaim-index-bound"
	// InvMemCompressedBytes: compressed payload bytes fit in the
	// compressed page count.
	InvMemCompressedBytes = "mem/compressed-bytes-bound"
	// InvMemIndexRecount (deep): every index matches a full-column recount.
	InvMemIndexRecount = "mem/index-recount"
	// InvZsmallocStats: arena counters are mutually coherent.
	InvZsmallocStats = "zsmalloc/stats-coherent"
	// InvZsmallocRecount (deep): arena stats match a zspage-list recount.
	InvZsmallocRecount = "zsmalloc/arena-recount"
	// InvZswapBytes: the sum of memcg compressed payload bytes equals the
	// arena's stored payload bytes.
	InvZswapBytes = "zswap/stored-bytes-conserved"
	// InvZswapPages: compressed pages equal arena objects plus zero-filled
	// residents.
	InvZswapPages = "zswap/page-accounting"
	// InvBreakerLegal: per-job circuit-breaker state stays inside the
	// state machine's legal envelope and trip counts reconcile.
	InvBreakerLegal = "node/breaker-state-legal"
	// InvWatchdogLegal: daemon-stall and watchdog-restart counters
	// reconcile with crashes and the current wedge flag.
	InvWatchdogLegal = "node/watchdog-accounting"
	// InvMonotonic: cumulative counters never run backwards, including
	// across machine restarts.
	InvMonotonic = "node/counter-monotonic"
)

// Violation is one invariant breach, attributed to a machine and (when
// applicable) a job.
type Violation struct {
	Machine   string `json:"machine"`
	Job       string `json:"job,omitempty"`
	Invariant string `json:"invariant"`
	Detail    string `json:"detail"`
}

// String renders the violation on one line.
func (v Violation) String() string {
	at := v.Machine
	if v.Job != "" {
		at += "/" + v.Job
	}
	return fmt.Sprintf("%s [%s]: %s", at, v.Invariant, v.Detail)
}

// V constructs a violation.
func V(machine, job, invariant, format string, args ...any) Violation {
	return Violation{Machine: machine, Job: job, Invariant: invariant, Detail: fmt.Sprintf(format, args...)}
}

// ErrViolation is the sentinel every audit failure wraps; callers branch
// with errors.Is(err, audit.ErrViolation) to separate invariant breaches
// from ordinary simulation errors.
var ErrViolation = errors.New("audit: fleet invariant violated")

// Error carries the violations that failed a step. It wraps ErrViolation.
type Error struct {
	Violations []Violation
}

// Error renders every violation.
func (e *Error) Error() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "audit: %d invariant violation(s):", len(e.Violations))
	for _, v := range e.Violations {
		sb.WriteString("\n  ")
		sb.WriteString(v.String())
	}
	return sb.String()
}

// Unwrap makes errors.Is(err, ErrViolation) hold.
func (e *Error) Unwrap() error { return ErrViolation }

// CheckMemcg runs the cheap per-memcg catalogue: byte conservation, age
// histogram sums, index bounds. Cost is O(NumAges) per call with no
// allocation on the healthy path.
func CheckMemcg(machine string, mc *mem.Memcg) []Violation {
	var vs []Violation
	job := mc.Name()
	pages := uint64(mc.NumPages())
	resident := uint64(mc.Resident())
	compressed := uint64(mc.Compressed())
	if resident+compressed != pages {
		vs = append(vs, V(machine, job, InvMemConservation,
			"resident %d + compressed %d != %d allocated pages", resident, compressed, pages))
	}
	ages := mc.AgeCounts()
	var ageSum uint64
	for _, n := range ages {
		ageSum += n
	}
	if ageSum != pages {
		vs = append(vs, V(machine, job, InvMemAgeCensus,
			"age histogram sums to %d, memcg holds %d pages", ageSum, pages))
	}
	cages := mc.CompressedAgeCounts()
	var compSum uint64
	for a, n := range cages {
		compSum += n
		if n > ages[a] {
			vs = append(vs, V(machine, job, InvMemCompressedAges,
				"age %d: %d compressed pages exceed %d total pages", a, n, ages[a]))
			break
		}
	}
	if compSum != compressed {
		vs = append(vs, V(machine, job, InvMemCompressedAges,
			"compressed-age histogram sums to %d, memcg holds %d compressed pages", compSum, compressed))
	}
	if tail := mc.ReclaimTail(0); tail > resident {
		vs = append(vs, V(machine, job, InvMemReclaimIndex,
			"reclaim index covers %d pages, only %d resident", tail, resident))
	}
	if cb := mc.CompressedBytes(); cb > compressed*mem.PageSize {
		vs = append(vs, V(machine, job, InvMemCompressedBytes,
			"%d compressed payload bytes exceed %d pages' capacity", cb, compressed))
	}
	return vs
}

// CheckMemcgDeep recounts every memcg index from the raw columns
// (mem.Memcg.VerifyIndexes). Full-walk cost.
func CheckMemcgDeep(machine string, mc *mem.Memcg) []Violation {
	if err := mc.VerifyIndexes(); err != nil {
		return []Violation{V(machine, mc.Name(), InvMemIndexRecount, "%v", err)}
	}
	return nil
}

// CheckArenaStats verifies the mutual coherence of a zsmalloc arena's
// O(1) counters: physical bytes derive from the zspage count, payload
// never exceeds rounded slot bytes, slots never exceed physical memory,
// and emptiness is consistent.
func CheckArenaStats(machine string, st zsmalloc.Stats) []Violation {
	var vs []Violation
	if st.Objects < 0 || st.Zspages < 0 {
		vs = append(vs, V(machine, "", InvZsmallocStats,
			"negative counts: %d objects, %d zspages", st.Objects, st.Zspages))
	}
	if want := uint64(st.Zspages) * zsmalloc.ZspageBytes; st.PhysicalBytes != want {
		vs = append(vs, V(machine, "", InvZsmallocStats,
			"%d zspages should pin %d physical bytes, stats say %d", st.Zspages, want, st.PhysicalBytes))
	}
	if st.PayloadBytes > st.SlotBytes {
		vs = append(vs, V(machine, "", InvZsmallocStats,
			"payload bytes %d exceed rounded slot bytes %d", st.PayloadBytes, st.SlotBytes))
	}
	if st.SlotBytes > st.PhysicalBytes {
		vs = append(vs, V(machine, "", InvZsmallocStats,
			"slot bytes %d exceed physical bytes %d", st.SlotBytes, st.PhysicalBytes))
	}
	if (st.Objects == 0) != (st.PayloadBytes == 0) {
		vs = append(vs, V(machine, "", InvZsmallocStats,
			"%d objects with %d payload bytes", st.Objects, st.PayloadBytes))
	}
	return vs
}

// CheckPool runs zswap-level conservation for a machine whose far-memory
// tier bottoms out in a plain zswap pool. jobPages and jobBytes are the
// machine's totals across all jobs: sum of Memcg.Compressed() and
// Memcg.CompressedBytes(). Zero-filled pages contribute zero bytes and
// occupy no arena object, which is exactly what ZeroResident reconciles.
func CheckPool(machine string, p *zswap.Pool, jobPages, jobBytes uint64) []Violation {
	ast := p.ArenaStats()
	vs := CheckArenaStats(machine, ast)
	if ast.PayloadBytes != jobBytes {
		vs = append(vs, V(machine, "", InvZswapBytes,
			"memcgs account %d compressed payload bytes, arena stores %d", jobBytes, ast.PayloadBytes))
	}
	if stored := uint64(ast.Objects) + p.ZeroResident(); stored != jobPages {
		vs = append(vs, V(machine, "", InvZswapPages,
			"memcgs hold %d compressed pages, pool stores %d (%d objects + %d zero-filled)",
			jobPages, stored, ast.Objects, p.ZeroResident()))
	}
	return vs
}

// CheckPoolDeep recounts the pool's arena from its zspage lists. Full
// arena walk.
func CheckPoolDeep(machine string, p *zswap.Pool) []Violation {
	if err := p.VerifyArena(); err != nil {
		return []Violation{V(machine, "", InvZsmallocRecount, "%v", err)}
	}
	return nil
}
