package chaos

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"sdfm/internal/audit"
	"sdfm/internal/fault"
	"sdfm/internal/mem"
	"sdfm/internal/zswap"
)

func TestGeneratePlanAlwaysValid(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		p := GeneratePlan(seed, PlanConfig{Duration: 3 * time.Hour, Machines: 5, MaxEvents: 12})
		if err := p.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(p.Events) < 1 || len(p.Events) > 12 {
			t.Fatalf("seed %d: %d events", seed, len(p.Events))
		}
		for _, e := range p.Events {
			if e.At < 0 || e.At >= 3*time.Hour {
				t.Fatalf("seed %d: event at %v outside the run", seed, e.At)
			}
		}
	}
	// Same seed, same plan.
	a := GeneratePlan(42, PlanConfig{})
	b := GeneratePlan(42, PlanConfig{})
	if len(a.Events) != len(b.Events) {
		t.Fatalf("seed 42 not deterministic: %d vs %d events", len(a.Events), len(b.Events))
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatalf("seed 42 event %d differs: %+v vs %+v", i, a.Events[i], b.Events[i])
		}
	}
}

// smallFleet keeps individual chaos runs cheap enough to afford many of
// them in one test.
func smallFleet() FleetConfig {
	return FleetConfig{
		Machines:       2,
		Jobs:           3,
		DRAMPerMachine: 512 << 20,
		Duration:       time.Hour,
		Seed:           11,
	}
}

// TestSearchShippedTreeClean is the headline acceptance property: a
// chaos search over 64 seeded random plans (reduced under -short and the
// race detector) finds zero invariant violations, panics, or errors in
// the shipped tree — every step of every faulted run passes the cheap
// catalogue and every run ends with a clean deep recount.
func TestSearchShippedTreeClean(t *testing.T) {
	seeds := 64
	if testing.Short() || raceEnabled {
		seeds = 8
	}
	sr := Search(SearchConfig{
		Seeds: seeds,
		Fleet: smallFleet(),
	})
	if sr.Runs != seeds {
		t.Fatalf("ran %d plans, want %d", sr.Runs, seeds)
	}
	for _, f := range sr.Findings {
		t.Errorf("plan %q (seed %d): %s", f.Plan.Name, f.Plan.Seed, f.Summary())
	}
}

func TestRunDeterminismCheckClean(t *testing.T) {
	fc := smallFleet()
	fc.Duration = time.Hour
	fc.CheckDeterminism = true
	plan := GeneratePlan(3, PlanConfig{Duration: fc.Duration, Machines: fc.Machines})
	rep := Run(plan, fc)
	if rep.Outcome != OutcomeClean {
		t.Fatalf("outcome %s: %s", rep.Outcome, rep.Summary())
	}
	if rep.Fingerprint == 0 {
		t.Fatal("clean run without a fingerprint")
	}
}

// leakyTier wraps a plain zswap pool and deliberately breaks byte
// conservation: during the plan's compressor-slowdown windows it
// "promotes" pages by flipping memcg accounting without freeing the
// arena object, leaking compressed bytes the way a buggy promotion path
// would. Inner() exposes the pool so the auditor can reconcile it;
// SetNow receives the machine clock from node.NewMachine.
type leakyTier struct {
	inner *zswap.Pool
	plan  *fault.Plan
	now   func() time.Duration
	leaks int
}

func (t *leakyTier) Inner() zswap.FarMemory        { return t.inner }
func (t *leakyTier) SetNow(f func() time.Duration) { t.now = f }
func (t *leakyTier) FootprintBytes() uint64        { return t.inner.FootprintBytes() }
func (t *leakyTier) Stats() zswap.Stats            { return t.inner.Stats() }
func (t *leakyTier) Store(m *mem.Memcg, id mem.PageID) zswap.StoreResult {
	return t.inner.Store(m, id)
}
func (t *leakyTier) Drop(m *mem.Memcg, id mem.PageID) error { return t.inner.Drop(m, id) }
func (t *leakyTier) Compact() uint64                        { return t.inner.Compact() }

func (t *leakyTier) buggy() bool {
	if t.now == nil {
		return false
	}
	now := t.now()
	for _, e := range t.plan.Events {
		if e.Kind == fault.CompressorSlowdown && e.At <= now && now < e.At+e.Duration {
			return true
		}
	}
	return false
}

func (t *leakyTier) Load(m *mem.Memcg, id mem.PageID) (zswap.LoadResult, error) {
	if t.buggy() {
		if meta := m.Meta(id); meta.CompressedSize > 0 {
			size := int(meta.CompressedSize)
			m.MarkPromoted(id) // bug: the arena object is never freed
			t.leaks++
			return zswap.LoadResult{CompressedSize: size}, nil
		}
	}
	return t.inner.Load(m, id)
}

// sabotagePlan mixes decoy events around the one compressor-slowdown
// window that arms the leaky tier, so the shrinker has something to
// strip.
func sabotagePlan() *fault.Plan {
	return &fault.Plan{
		Name: "sabotage",
		Seed: 7,
		Events: []fault.Event{
			{Kind: fault.TelemetryDrop, At: 10 * time.Minute, Duration: 15 * time.Minute},
			{Kind: fault.DaemonStall, Machine: "m0000", At: 20 * time.Minute, Duration: 10 * time.Minute},
			{Kind: fault.MachineCrash, Machine: "m0001", At: 30 * time.Minute},
			{Kind: fault.CompressorError, At: 40 * time.Minute, Duration: 10 * time.Minute, Magnitude: 0.3},
			{Kind: fault.CompressorSlowdown, At: 60 * time.Minute, Duration: 25 * time.Minute, Magnitude: 4},
			{Kind: fault.ChurnBurst, At: 86 * time.Minute, Magnitude: 0.34},
		},
	}
}

func leakyFleet() FleetConfig {
	fc := smallFleet()
	fc.TierFn = func(plan *fault.Plan, _ int) zswap.FarMemory {
		return &leakyTier{inner: zswap.NewPool(), plan: plan}
	}
	return fc
}

// TestByteConservationBreakCaughtAndShrunk is the end-to-end acceptance
// test for the tentpole: a tier that deliberately breaks byte
// conservation is caught by the auditor as a zswap conservation
// violation, and delta debugging shrinks the six-event triggering plan
// to at most three events (in practice the single slowdown window that
// arms the bug) while reproducing the same signature.
func TestByteConservationBreakCaughtAndShrunk(t *testing.T) {
	plan := sabotagePlan()
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	fc := leakyFleet()
	rep := Run(plan, fc)
	if rep.Outcome != OutcomeViolation {
		t.Fatalf("outcome %s, want invariant-violation: %s", rep.Outcome, rep.Summary())
	}
	if !strings.HasPrefix(rep.Signature(), "violation:"+audit.InvZswapBytes) &&
		!strings.HasPrefix(rep.Signature(), "violation:"+audit.InvZswapPages) {
		t.Fatalf("unexpected signature %q: %s", rep.Signature(), rep.Summary())
	}

	res, err := Shrink(plan, fc, 100)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Plan.Events); got > 3 {
		t.Fatalf("shrunk to %d events, want <= 3: %+v", got, res.Plan.Events)
	}
	if res.Report.Outcome != OutcomeViolation || res.Report.Signature() != res.Signature {
		t.Fatalf("minimized plan no longer reproduces %q: %s", res.Signature, res.Report.Summary())
	}
	hasSlowdown := false
	for _, e := range res.Plan.Events {
		if e.Kind == fault.CompressorSlowdown {
			hasSlowdown = true
		}
	}
	if !hasSlowdown {
		t.Fatalf("minimized plan lost the triggering slowdown window: %+v", res.Plan.Events)
	}

	// The minimized plan must replay through the fleetsim -plan JSON
	// round trip with the same verdict.
	var buf bytes.Buffer
	if err := res.Plan.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := fault.LoadPlan(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rep2 := Run(loaded, fc)
	if rep2.Outcome != OutcomeViolation || rep2.Signature() != res.Signature {
		t.Fatalf("JSON round trip changed the verdict: %s", rep2.Summary())
	}
}

// TestShrinkRejectsCleanPlan: shrinking a plan that does not fail is an
// error, not a silent no-op.
func TestShrinkRejectsCleanPlan(t *testing.T) {
	fc := smallFleet()
	fc.Duration = time.Hour
	plan := GeneratePlan(5, PlanConfig{Duration: fc.Duration, Machines: fc.Machines})
	if _, err := Shrink(plan, fc, 20); err == nil {
		t.Fatal("shrinking a clean plan succeeded")
	}
}

// explodingTier is a zswap pool whose first store panics.
type explodingTier struct {
	*zswap.Pool
	machine int
}

func (e *explodingTier) Inner() zswap.FarMemory { return e.Pool }

func (e *explodingTier) Store(*mem.Memcg, mem.PageID) zswap.StoreResult {
	panic(fmt.Sprintf("tier of machine %d exploded", e.machine))
}

// TestMachinePanicIsAnOutcome: the cluster steps machines on several
// goroutines, and a panic on any goroutine but the caller's would kill
// the process before runOnce's recover saw it. Machines 1 and 2 of three
// panic here — with four processors at least one of them on a spawned
// worker — and the run must end as OutcomePanic with machine 1's value.
func TestMachinePanicIsAnOutcome(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	fc := smallFleet()
	fc.Machines = 3
	fc.Jobs = 6
	fc.TierFn = func(_ *fault.Plan, i int) zswap.FarMemory {
		if i == 0 {
			return nil
		}
		return &explodingTier{Pool: zswap.NewPool(), machine: i}
	}
	rep := Run(&fault.Plan{Name: "none"}, fc)
	if rep.Outcome != OutcomePanic || rep.PanicValue != "tier of machine 1 exploded" {
		t.Fatalf("outcome %s, want panic with machine 1's value: %s", rep.Outcome, rep.Summary())
	}
}
