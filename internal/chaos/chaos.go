// Package chaos searches the fault space for plans that break the
// fleet. It generates seeded random fault plans over all eight fault
// kinds, runs each against a seeded fleet with the invariant auditor
// (internal/audit) enabled, collects violations, panics, and
// determinism breaks, and shrinks a failing plan to a minimal
// reproducing event list with delta debugging (shrink.go) — the
// property-based chaos methodology of Jepsen/QuickCheck applied to the
// simulator's crash-consistency claims. Everything is driven by seeds,
// so a finding is a (plan seed, fleet seed) pair anyone can replay;
// cmd/chaos surfaces search, shrink, and replay, emitting plan JSON
// interchangeable with cmd/fleetsim -plan.
package chaos

import (
	"errors"
	"fmt"
	"time"

	"sdfm/internal/audit"
	"sdfm/internal/cluster"
	"sdfm/internal/core"
	"sdfm/internal/fault"
	"sdfm/internal/node"
	"sdfm/internal/simtime"
	"sdfm/internal/zswap"
)

// allKinds is every fault kind; generated plans draw from all of them.
var allKinds = []fault.Kind{
	fault.MachineCrash,
	fault.TelemetryDrop,
	fault.TelemetryCorrupt,
	fault.CompressorError,
	fault.CompressorSlowdown,
	fault.PressureSpike,
	fault.ChurnBurst,
	fault.DaemonStall,
}

// PlanConfig bounds the random fault plans the generator emits.
type PlanConfig struct {
	// Duration is the simulated run length plans are generated for;
	// event times land inside it (default 2 h).
	Duration time.Duration
	// Machines is the fleet size targeted events draw names from,
	// following the scheduler's m%04d convention (default 1).
	Machines int
	// MaxEvents caps events per plan; each plan gets 1..MaxEvents
	// (default 8).
	MaxEvents int
}

// GeneratePlan derives a random — but always valid — fault plan from the
// seed: random kinds, targets (machine-scoped or fleet-wide), times,
// window durations, magnitudes, and free overlap between windows. The
// same seed and config always yield the same plan.
func GeneratePlan(seed int64, cfg PlanConfig) *fault.Plan {
	if cfg.Duration <= 0 {
		cfg.Duration = 2 * time.Hour
	}
	if cfg.Machines <= 0 {
		cfg.Machines = 1
	}
	if cfg.MaxEvents <= 0 {
		cfg.MaxEvents = 8
	}
	rng := simtime.Rand(seed, "chaos/plan")
	n := 1 + rng.Intn(cfg.MaxEvents)
	p := &fault.Plan{
		Name:   fmt.Sprintf("chaos-%d", seed),
		Seed:   seed,
		Events: make([]fault.Event, 0, n),
	}
	for i := 0; i < n; i++ {
		k := allKinds[rng.Intn(len(allKinds))]
		e := fault.Event{Kind: k, At: time.Duration(rng.Int63n(int64(cfg.Duration)))}
		if rng.Intn(2) == 0 {
			e.Machine = fmt.Sprintf("m%04d", rng.Intn(cfg.Machines))
		}
		switch k {
		case fault.MachineCrash, fault.ChurnBurst:
			// Instant kinds carry no duration.
		default:
			// Windows span 1/20 to ~3/10 of the run and may overlap freely.
			e.Duration = time.Duration(int64(cfg.Duration)/20 + rng.Int63n(int64(cfg.Duration)/4))
		}
		switch k {
		case fault.CompressorError:
			e.Magnitude = 0.05 + 0.95*rng.Float64()
		case fault.CompressorSlowdown:
			e.Magnitude = 1 + 49*rng.Float64()
		case fault.PressureSpike:
			e.Magnitude = 0.05 + 0.6*rng.Float64()
		case fault.ChurnBurst:
			e.Magnitude = 0.1 + 0.9*rng.Float64()
		}
		p.Events = append(p.Events, e)
	}
	if err := p.Validate(); err != nil {
		// The generator's ranges are chosen to satisfy Validate; a failure
		// here is a generator bug, not bad input.
		panic(fmt.Sprintf("chaos: generated invalid plan: %v", err))
	}
	return p
}

// FleetConfig describes the seeded fleet a plan runs against. The zero
// value is a small proactive fleet with breakers and auditing on.
type FleetConfig struct {
	Machines       int           // default 3
	Jobs           int           // default 3 per machine
	DRAMPerMachine uint64        // default 1 GiB
	Duration       time.Duration // default 2 h
	Seed           int64         // fleet seed (scheduling, memcg content)
	Params         core.Params   // default K=95, S=10m
	Breaker        node.BreakerConfig
	// Audit configures the per-step invariant cadence. Enabled is forced
	// on — chaos without the auditor finds nothing.
	Audit audit.Config
	// TierFn, when set, builds machine i's far-memory tier for the plan
	// under test (test instrumentation; nil uses the default zswap pool).
	TierFn func(plan *fault.Plan, machineIdx int) zswap.FarMemory
	// CheckDeterminism reruns clean plans and flags fingerprint drift.
	CheckDeterminism bool
}

func (fc FleetConfig) withDefaults() FleetConfig {
	if fc.Machines <= 0 {
		fc.Machines = 3
	}
	if fc.Jobs <= 0 {
		fc.Jobs = 3 * fc.Machines
	}
	if fc.DRAMPerMachine == 0 {
		fc.DRAMPerMachine = 1 << 30
	}
	if fc.Duration <= 0 {
		fc.Duration = 2 * time.Hour
	}
	if fc.Params == (core.Params{}) {
		fc.Params = core.Params{K: 95, S: 10 * time.Minute}
	}
	if fc.Breaker == (node.BreakerConfig{}) {
		fc.Breaker = node.BreakerConfig{Enabled: true}
	}
	fc.Audit.Enabled = true
	return fc
}

// Outcome classifies one chaos run.
type Outcome int

const (
	// OutcomeClean: the run completed with every invariant intact.
	OutcomeClean Outcome = iota
	// OutcomeViolation: the auditor flagged at least one invariant.
	OutcomeViolation
	// OutcomePanic: the simulator panicked.
	OutcomePanic
	// OutcomeError: the run failed with a non-audit error.
	OutcomeError
	// OutcomeNondeterminism: two runs of the same plan diverged.
	OutcomeNondeterminism
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case OutcomeClean:
		return "clean"
	case OutcomeViolation:
		return "invariant-violation"
	case OutcomePanic:
		return "panic"
	case OutcomeError:
		return "error"
	case OutcomeNondeterminism:
		return "nondeterminism"
	default:
		return fmt.Sprintf("outcome(%d)", int(o))
	}
}

// Report is the outcome of running one plan against one fleet.
type Report struct {
	Plan    *fault.Plan
	Outcome Outcome
	// Violations is set when Outcome is OutcomeViolation.
	Violations []audit.Violation
	// Err is set when Outcome is OutcomeError (or Nondeterminism via a
	// second-run error).
	Err error
	// PanicValue is set when Outcome is OutcomePanic.
	PanicValue string
	// Fingerprint of the completed run; clean runs only.
	Fingerprint uint64
	// FaultStats aggregates the fleet's fault counters (zero after a
	// panic).
	FaultStats node.FaultStats
}

// Failed reports whether the run is a finding.
func (r Report) Failed() bool { return r.Outcome != OutcomeClean }

// Signature is a stable label for the failure class. The shrinker only
// accepts reductions that reproduce the original signature, so it
// minimizes toward the same bug rather than any bug.
func (r Report) Signature() string {
	switch r.Outcome {
	case OutcomeViolation:
		return "violation:" + r.Violations[0].Invariant
	case OutcomePanic:
		return "panic"
	case OutcomeError:
		return "error"
	case OutcomeNondeterminism:
		return "nondeterminism"
	default:
		return "clean"
	}
}

// Summary renders the report's finding on one line.
func (r Report) Summary() string {
	switch r.Outcome {
	case OutcomeViolation:
		return fmt.Sprintf("%s: %s (+%d more)", r.Outcome, r.Violations[0], len(r.Violations)-1)
	case OutcomePanic:
		return fmt.Sprintf("%s: %s", r.Outcome, r.PanicValue)
	case OutcomeError:
		return fmt.Sprintf("%s: %v", r.Outcome, r.Err)
	default:
		return r.Outcome.String()
	}
}

// Run executes one plan against a seeded audited fleet, recovering
// panics, and classifies the outcome. With CheckDeterminism set, clean
// runs execute twice and must produce identical fingerprints.
func Run(plan *fault.Plan, fc FleetConfig) Report {
	fc = fc.withDefaults()
	rep := Report{Plan: plan}
	fp, fs, err, panicValue := runOnce(plan, fc)
	if panicValue != "" {
		rep.Outcome = OutcomePanic
		rep.PanicValue = panicValue
		return rep
	}
	rep.FaultStats = fs
	if err != nil {
		var ae *audit.Error
		if errors.As(err, &ae) {
			rep.Outcome = OutcomeViolation
			rep.Violations = ae.Violations
		} else {
			rep.Outcome = OutcomeError
			rep.Err = err
		}
		return rep
	}
	rep.Fingerprint = fp
	if fc.CheckDeterminism {
		fp2, _, err2, pv2 := runOnce(plan, fc)
		if pv2 != "" || err2 != nil || fp2 != fp {
			rep.Outcome = OutcomeNondeterminism
			rep.PanicValue = pv2
			rep.Err = err2
			return rep
		}
	}
	rep.Outcome = OutcomeClean
	return rep
}

func runOnce(plan *fault.Plan, fc FleetConfig) (fp uint64, fs node.FaultStats, err error, panicValue string) {
	defer func() {
		if r := recover(); r != nil {
			panicValue = fmt.Sprint(r)
		}
	}()
	cfg := cluster.Config{
		Name:           "chaos",
		Machines:       fc.Machines,
		DRAMPerMachine: fc.DRAMPerMachine,
		Mode:           node.ModeProactive,
		Params:         fc.Params,
		Seed:           fc.Seed,
		Faults:         plan,
		Breaker:        fc.Breaker,
		Audit:          fc.Audit,
	}
	if fc.TierFn != nil {
		cfg.TierFn = func(i int) zswap.FarMemory { return fc.TierFn(plan, i) }
	}
	c, err := cluster.New(cfg)
	if err != nil {
		return
	}
	if err = c.Populate(fc.Jobs, nil, fc.Seed+1); err != nil {
		return
	}
	if err = c.Run(fc.Duration); err != nil {
		return
	}
	// End-of-run deep audit: full index and arena recounts catch whatever
	// the cheap per-step catalogue cannot see.
	if vs := c.Audit(true); len(vs) > 0 {
		err = &audit.Error{Violations: vs}
		return
	}
	fs = c.FaultStats()
	fp = c.Fingerprint()
	return
}

// SearchConfig drives a chaos search.
type SearchConfig struct {
	// Seeds is how many random plans to generate and run (default 64).
	Seeds int
	// Seed0 is the first plan seed; plans use Seed0..Seed0+Seeds-1
	// (default 1).
	Seed0 int64
	Plan  PlanConfig
	Fleet FleetConfig
	// Progress, when set, is called after every run.
	Progress func(seed int64, rep Report)
}

// SearchReport aggregates a search's findings.
type SearchReport struct {
	Runs     int
	Findings []Report
}

// Search generates and runs Seeds random fault plans against identically
// seeded fleets, auditing throughout, and returns every failing run.
func Search(cfg SearchConfig) SearchReport {
	if cfg.Seeds <= 0 {
		cfg.Seeds = 64
	}
	if cfg.Seed0 == 0 {
		cfg.Seed0 = 1
	}
	fleet := cfg.Fleet.withDefaults()
	if cfg.Plan.Machines <= 0 {
		cfg.Plan.Machines = fleet.Machines
	}
	if cfg.Plan.Duration <= 0 {
		cfg.Plan.Duration = fleet.Duration
	}
	var sr SearchReport
	for i := 0; i < cfg.Seeds; i++ {
		seed := cfg.Seed0 + int64(i)
		plan := GeneratePlan(seed, cfg.Plan)
		rep := Run(plan, fleet)
		sr.Runs++
		if rep.Failed() {
			sr.Findings = append(sr.Findings, rep)
		}
		if cfg.Progress != nil {
			cfg.Progress(seed, rep)
		}
	}
	return sr
}
