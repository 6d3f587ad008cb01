package cluster

import (
	"bytes"
	"testing"
	"time"

	"sdfm/internal/core"
	"sdfm/internal/fault"
	"sdfm/internal/node"
	"sdfm/internal/telemetry"
	"sdfm/internal/telemetry/colfmt"
)

// traceBytes serializes a trace's entries with the module's entry codec,
// so runs can be compared (and fingerprinted) byte for byte.
func traceBytes(t *testing.T, trace *telemetry.Trace) []byte {
	t.Helper()
	buf, err := colfmt.AppendEntries(nil, trace.Entries, colfmt.Prefixed)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// runTrace builds a small cluster, optionally with a fault plan, runs it,
// and returns the serialized telemetry trace.
func runTrace(t *testing.T, seed int64, plan *fault.Plan) []byte {
	t.Helper()
	trace := telemetry.NewTrace()
	c, err := New(Config{
		Name:           "det",
		Machines:       3,
		DRAMPerMachine: 256 << 20,
		Mode:           node.ModeProactive,
		Params:         core.DefaultParams,
		SLO:            core.DefaultSLO,
		Seed:           seed,
		Collector:      telemetry.NewCollector(trace),
		Faults:         plan,
		Breaker:        node.BreakerConfig{Enabled: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Populate(6, nil, seed); err != nil {
		t.Fatal(err)
	}
	if err := c.Run(2 * time.Hour); err != nil {
		t.Fatal(err)
	}
	return traceBytes(t, trace)
}

// TestFaultedRunsAreDeterministic is the determinism guard: two runs with
// the same seed and the same active fault plan must emit byte-identical
// telemetry.
func TestFaultedRunsAreDeterministic(t *testing.T) {
	if raceEnabled {
		t.Skip("byte-determinism sims are too slow under the race detector")
	}
	plan := fault.DefaultPlan(7, 2*time.Hour)
	a := runTrace(t, 7, plan)
	b := runTrace(t, 7, plan)
	if !bytes.Equal(a, b) {
		t.Fatalf("same-seed faulted runs diverged: %d vs %d bytes", len(a), len(b))
	}
	if len(a) == 0 {
		t.Fatal("faulted run produced no telemetry")
	}
}

// TestEmptyPlanMatchesNoPlan checks that wiring in an empty fault plan is
// a no-op: the run must stay byte-identical to one built without a plan.
func TestEmptyPlanMatchesNoPlan(t *testing.T) {
	if raceEnabled {
		t.Skip("byte-determinism sims are too slow under the race detector")
	}
	none := runTrace(t, 11, nil)
	empty := runTrace(t, 11, &fault.Plan{Name: "empty"})
	if !bytes.Equal(none, empty) {
		t.Fatal("empty fault plan perturbed the simulation")
	}
	if len(none) == 0 {
		t.Fatal("run produced no telemetry")
	}
}

// TestFaultPlanActuallyPerturbs guards against the injector silently never
// firing: the default plan must change the run relative to fault-free.
func TestFaultPlanActuallyPerturbs(t *testing.T) {
	if raceEnabled {
		t.Skip("byte-determinism sims are too slow under the race detector")
	}
	clean := runTrace(t, 7, nil)
	faulted := runTrace(t, 7, fault.DefaultPlan(7, 2*time.Hour))
	if bytes.Equal(clean, faulted) {
		t.Fatal("default fault plan left telemetry byte-identical to fault-free run")
	}
}
