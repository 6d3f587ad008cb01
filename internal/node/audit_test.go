package node

import (
	"errors"
	"testing"
	"time"

	"sdfm/internal/audit"
	"sdfm/internal/core"
	"sdfm/internal/fault"
	"sdfm/internal/obs"
	"sdfm/internal/workload"
)

// TestBreakerRetripCountedEveryTime pins the re-trip accounting
// contract: a breaker that opens, is reset by a machine restart, and
// opens again has tripped twice — per-job and machine-wide counters
// must both record every trip, never collapse the sequence into one.
// A third trip through the cooldown half-open path counts too, and the
// audit catalogue's trip-reconciliation invariant holds throughout.
func TestBreakerRetripCountedEveryTime(t *testing.T) {
	m := newMachine(t, Config{
		Mode: ModeProactive,
		Breaker: BreakerConfig{
			Enabled: true, TripViolations: 1, Cooldown: 10 * time.Minute,
		},
		Seed: 45,
	})
	j := addWorkload(t, m, workload.WebFrontend, 1)
	j.lastWSS = 1000
	slo := m.cfg.SLO.TargetRatePerMin
	violate := func() {
		t.Helper()
		j.lastWSS = 1000
		j.intervalProm = uint64(slo*5*1000)*10 + 100
		m.updateBreaker(j, 5)
	}
	trip := func(want int) {
		t.Helper()
		for s := 0; s < maxBackoffSteps; s++ {
			violate() // escalate one backoff step
		}
		violate() // backoff exhausted: open
		if j.BreakerState() != BreakerOpen || j.BreakerTrips() != want {
			t.Fatalf("state %v, job trips %d, want open with %d trips", j.BreakerState(), j.BreakerTrips(), want)
		}
		if m.FaultStats().BreakerTrips != want {
			t.Fatalf("machine counted %d trips, job counted %d", m.FaultStats().BreakerTrips, want)
		}
	}

	trip(1)

	// A machine restart resets breaker *state* (closed, no backoff, no
	// stale reopen deadline) but must not erase trip *accounting*.
	if err := m.crash(); err != nil {
		t.Fatal(err)
	}
	if j.BreakerState() != BreakerClosed || j.breakerReopenAt != 0 {
		t.Fatalf("post-crash breaker not cleanly closed: state %v reopenAt %v", j.BreakerState(), j.breakerReopenAt)
	}
	if j.BreakerTrips() != 1 || m.FaultStats().BreakerTrips != 1 {
		t.Fatalf("crash erased trip accounting: job %d machine %d", j.BreakerTrips(), m.FaultStats().BreakerTrips)
	}
	trip(2)

	// Cooldown elapses, the breaker half-opens, and a fresh violation run
	// re-trips: three distinct openings, three counted.
	m.now += m.cfg.Breaker.Cooldown + time.Second
	j.intervalProm = 0
	m.updateBreaker(j, 5) // half-open: re-enabled with backoff retained
	if j.BreakerState() == BreakerOpen {
		t.Fatal("breaker still open past cooldown")
	}
	violate()
	if j.BreakerState() != BreakerOpen || j.BreakerTrips() != 3 || m.FaultStats().BreakerTrips != 3 {
		t.Fatalf("half-open re-trip miscounted: state %v job %d machine %d",
			j.BreakerState(), j.BreakerTrips(), m.FaultStats().BreakerTrips)
	}

	// The audit catalogue agrees at every point above; in particular the
	// per-job trips reconcile with the machine total.
	if vs := m.Audit(false); len(vs) > 0 {
		t.Fatalf("audit violations on legal breaker history: %v", vs)
	}
}

// TestAuditedRunClean: a faulted, breaker-enabled machine with per-step
// auditing and periodic deep recounts completes a run with zero
// violations.
func TestAuditedRunClean(t *testing.T) {
	duration := 90 * time.Minute
	plan := fault.DefaultPlan(46, duration)
	m := newMachine(t, Config{
		Mode:     ModeProactive,
		Params:   core.Params{K: 95, S: 5 * time.Minute},
		Seed:     46,
		Injector: fault.NewInjector(plan, "m0"),
		Breaker:  BreakerConfig{Enabled: true},
		Audit:    audit.Config{Enabled: true, DeepEverySteps: 8},
	})
	addWorkload(t, m, workload.BigtableServer, 1)
	addWorkload(t, m, workload.WebFrontend, 2)
	if err := m.Run(duration); err != nil {
		t.Fatal(err)
	}
	if vs := m.Audit(true); len(vs) > 0 {
		t.Fatalf("clean run left violations: %v", vs)
	}
}

// TestAuditRunsEveryStep: an enabled auditor runs the cheap catalogue on
// every step and the deep recounts every DeepEverySteps steps.
func TestAuditRunsEveryStep(t *testing.T) {
	o := obs.NewMulti().Observer("m0")
	m := newMachine(t, Config{
		Mode:  ModeProactive,
		Seed:  49,
		Audit: audit.Config{Enabled: true, DeepEverySteps: 4},
		Obs:   o,
	})
	addWorkload(t, m, workload.WebFrontend, 6)
	const steps = 12
	for i := 0; i < steps; i++ {
		if err := m.Step(); err != nil {
			t.Fatal(err)
		}
	}
	runs := o.Counter("sdfm_node_audit_runs_total", "Invariant-audit passes.").Value()
	deep := o.Counter("sdfm_node_audit_deep_runs_total", "Deep (full-recount) audit passes.").Value()
	if runs != steps || deep != steps/4 {
		t.Errorf("%d steps ran %v audits, %v deep; want %d and %d", steps, runs, deep, steps, steps/4)
	}
}

// TestAuditStepFailsOnIllegalState: corrupting the breaker state machine
// behind the auditor's back fails the next audited step with an error
// wrapping audit.ErrViolation and naming the invariant.
func TestAuditStepFailsOnIllegalState(t *testing.T) {
	m := newMachine(t, Config{
		Mode:    ModeProactive,
		Seed:    47,
		Breaker: BreakerConfig{Enabled: true},
		Audit:   audit.Config{Enabled: true},
	})
	j := addWorkload(t, m, workload.WebFrontend, 3)
	if err := m.Run(10 * time.Minute); err != nil {
		t.Fatal(err)
	}
	// Push the backoff far outside its legal envelope; the step's own
	// breaker update can decay it by at most one, so the audit at the end
	// of the step still sees an illegal state.
	j.backoffSteps = maxBackoffSteps + 5
	err := m.Step()
	if err == nil {
		t.Fatal("audited step accepted an illegal breaker state")
	}
	if !errors.Is(err, audit.ErrViolation) {
		t.Fatalf("error %v does not wrap audit.ErrViolation", err)
	}
	var ae *audit.Error
	if !errors.As(err, &ae) {
		t.Fatalf("error %T is not *audit.Error", err)
	}
	if ae.Violations[0].Invariant != audit.InvBreakerLegal {
		t.Fatalf("flagged %q, want %q", ae.Violations[0].Invariant, audit.InvBreakerLegal)
	}
}

// TestAuditCatchesCounterRegression: a cumulative counter running
// backwards — the classic restart accounting bug — trips the
// monotonicity invariant on the next audit.
func TestAuditCatchesCounterRegression(t *testing.T) {
	m := newMachine(t, Config{
		Mode:   ModeProactive,
		Params: core.Params{K: 95, S: 5 * time.Minute},
		Seed:   48,
		Audit:  audit.Config{Enabled: true},
	})
	j := addWorkload(t, m, workload.BigtableServer, 4)
	if err := m.Run(time.Hour); err != nil {
		t.Fatal(err)
	}
	if j.Promotions == 0 {
		t.Fatal("no promotions after an hour; test needs a warmer setup")
	}
	j.Promotions-- // simulate a restart bug losing history
	vs := m.Audit(false)
	if len(vs) == 0 {
		t.Fatal("counter regression not flagged")
	}
	if vs[0].Invariant != audit.InvMonotonic {
		t.Fatalf("flagged %q, want %q", vs[0].Invariant, audit.InvMonotonic)
	}
}

// TestAuditDisabledCostsNothing: the zero-value config leaves the hook
// cold — no baseline snapshots, no violations, no step failures.
func TestAuditDisabledIsInert(t *testing.T) {
	m := newMachine(t, Config{Mode: ModeProactive, Seed: 49})
	addWorkload(t, m, workload.WebFrontend, 5)
	if err := m.Run(30 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if m.auditprev.valid {
		t.Fatal("disabled auditor advanced its baseline")
	}
}
