package cluster

import (
	"strings"
	"testing"
	"time"

	"sdfm/internal/audit"
	"sdfm/internal/core"
	"sdfm/internal/fault"
	"sdfm/internal/mem"
	"sdfm/internal/node"
	"sdfm/internal/workload"
)

const gib = uint64(1) << 30

func newCluster(t *testing.T, cfg Config) *Cluster {
	t.Helper()
	if cfg.Name == "" {
		cfg.Name = "test"
	}
	if cfg.Machines == 0 {
		cfg.Machines = 4
	}
	if cfg.DRAMPerMachine == 0 {
		cfg.DRAMPerMachine = gib
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Name: "x", Machines: 0, DRAMPerMachine: gib}); err == nil {
		t.Error("zero machines accepted")
	}
	if _, err := New(Config{Name: "x", Machines: 1}); err == nil {
		t.Error("zero DRAM accepted")
	}
}

func TestScheduleLeastLoaded(t *testing.T) {
	c := newCluster(t, Config{Machines: 3})
	var placed []*node.Machine
	for i := 0; i < 3; i++ {
		w, err := workload.New(workload.Config{
			Archetype: workload.WebFrontend, Name: "w", Seed: int64(i),
		})
		if err != nil {
			t.Fatal(err)
		}
		m, j, err := c.Schedule(w)
		if err != nil {
			t.Fatal(err)
		}
		if j == nil {
			t.Fatal("nil job")
		}
		placed = append(placed, m)
	}
	// Three similar jobs must spread across three machines.
	seen := map[string]bool{}
	for _, m := range placed {
		seen[m.Name()] = true
	}
	if len(seen) != 3 {
		t.Errorf("jobs spread over %d machines, want 3", len(seen))
	}
	if c.JobCount() != 3 {
		t.Errorf("JobCount = %d", c.JobCount())
	}
}

func TestScheduleRejectsWhenFull(t *testing.T) {
	// Machines sized to fit a single small workload each.
	c := newCluster(t, Config{Machines: 2, DRAMPerMachine: 6000 * mem.PageSize * 12 / 10})
	for i := 0; ; i++ {
		w, err := workload.New(workload.Config{
			Archetype: workload.WebFrontend, Name: "w", Seed: int64(i),
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.Schedule(w); err != nil {
			if i < 2 {
				t.Fatalf("rejected after only %d placements", i)
			}
			return // eventually full: expected
		}
		if i > 20 {
			t.Fatal("never filled up")
		}
	}
}

func TestPopulateAndRun(t *testing.T) {
	c := newCluster(t, Config{
		Machines:       3,
		DRAMPerMachine: 2 * gib,
		Mode:           node.ModeProactive,
		Params:         core.Params{K: 95, S: 10 * time.Minute},
		Seed:           1,
	})
	if err := c.Populate(6, nil, 42); err != nil {
		t.Fatal(err)
	}
	if err := c.Run(2 * time.Hour); err != nil {
		t.Fatal(err)
	}
	if c.Evictions() != 0 {
		t.Errorf("evictions = %d with generous DRAM", c.Evictions())
	}
	if c.EvictionSLO() != 0 {
		t.Errorf("eviction SLO = %v", c.EvictionSLO())
	}
	cov := c.CoverageSummary()
	if cov.N == 0 {
		t.Fatal("no machines with cold memory")
	}
	if cov.Mean <= 0 {
		t.Error("no coverage after 2 h proactive run")
	}
	cf := c.ColdFractionSummary()
	if cf.Mean <= 0 || cf.Mean >= 1 {
		t.Errorf("cold fraction mean = %v", cf.Mean)
	}
}

func TestJobCountAfterPopulateAndRun(t *testing.T) {
	c := newCluster(t, Config{
		Name: "c", Machines: 2, DRAMPerMachine: gib,
		Mode: node.ModeProactive, Params: core.Params{K: 95, S: 10 * time.Minute},
		Seed: 8,
	})
	if err := c.Populate(4, nil, 9); err != nil {
		t.Fatal(err)
	}
	if err := c.Run(time.Hour); err != nil {
		t.Fatal(err)
	}
	if c.JobCount() != 4 {
		t.Errorf("jobs = %d", c.JobCount())
	}
}

func TestABGroups(t *testing.T) {
	c := newCluster(t, Config{
		Machines:       4,
		DRAMPerMachine: 2 * gib,
		ModeFn: func(i int) node.Mode {
			if i%2 == 0 {
				return node.ModeProactive
			}
			return node.ModeDisabled
		},
		Params: core.Params{K: 95, S: 10 * time.Minute},
		Seed:   2,
	})
	exp := c.Group(node.ModeProactive)
	ctl := c.Group(node.ModeDisabled)
	if len(exp) != 2 || len(ctl) != 2 {
		t.Fatalf("groups = %d/%d, want 2/2", len(exp), len(ctl))
	}
	// Populate each machine directly so both groups get similar load.
	for i, m := range c.Machines() {
		w, err := workload.New(workload.Config{
			Archetype: workload.BigtableServer, Name: "bt", Seed: int64(100 + i),
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.AddJob(w); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Run(3 * time.Hour); err != nil {
		t.Fatal(err)
	}
	for _, m := range exp {
		if m.CompressedPages() == 0 {
			t.Errorf("experiment machine %s compressed nothing", m.Name())
		}
	}
	for _, m := range ctl {
		if m.CompressedPages() != 0 {
			t.Errorf("control machine %s compressed pages", m.Name())
		}
	}
}

func TestStepAdvancesAllMachines(t *testing.T) {
	c := newCluster(t, Config{Machines: 2, Seed: 3})
	if err := c.Step(); err != nil {
		t.Fatal(err)
	}
	for _, m := range c.Machines() {
		if m.Now() == 0 {
			t.Error("machine not stepped")
		}
	}
}

// TestWorkerCountFourMatchesOne: machines are independent given their
// seeds, so four workers must reproduce one worker's state exactly — not
// just summary counters but every job's accounting, census, and pool
// statistics.
func TestWorkerCountFourMatchesOne(t *testing.T) {
	build := func() *Cluster {
		c := newCluster(t, Config{
			Machines: 3, DRAMPerMachine: 2 * gib,
			Mode: node.ModeProactive, Params: core.Params{K: 95, S: 10 * time.Minute},
			Seed: 60,
		})
		if err := c.Populate(6, nil, 61); err != nil {
			t.Fatal(err)
		}
		return c
	}
	one := build()
	if err := one.RunParallel(90*time.Minute, 1); err != nil {
		t.Fatal(err)
	}
	four := build()
	if err := four.RunParallel(90*time.Minute, 4); err != nil {
		t.Fatal(err)
	}
	sameMachines(t, one, four)
}

// sameMachines fails the test unless every machine of a and b is in the
// same observable state, showing the first that is not.
func sameMachines(t *testing.T, a, b *Cluster) {
	t.Helper()
	for i := range a.Machines() {
		fa, fb := machineFingerprint(a.Machines()[i]), machineFingerprint(b.Machines()[i])
		if fa != fb {
			t.Fatalf("machine %d state diverges:\n%s\nvs:\n%s", i, fa, fb)
		}
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("cluster fingerprints diverge: %016x vs %016x", a.Fingerprint(), b.Fingerprint())
	}
}

// machineFingerprint renders everything observable about a machine's
// state — the same fields the golden-equivalence hash covers — so tests
// can assert two runs are byte-identical with a readable diff.
func machineFingerprint(m *node.Machine) string {
	var sb strings.Builder
	m.WriteFingerprint(&sb)
	return sb.String()
}

// TestWorkerCountAuditedFourMatchesOne is the concurrent-audit
// determinism guarantee: with the invariant auditor enabled on every
// machine and a fault plan active, four workers must still produce
// byte-identical state to one — the auditor reads state and advances
// only its own per-machine baseline, so worker scheduling cannot leak
// into the simulation.
func TestWorkerCountAuditedFourMatchesOne(t *testing.T) {
	duration := 2 * time.Hour
	build := func() *Cluster {
		c := newCluster(t, Config{
			Machines: 3, DRAMPerMachine: 2 * gib,
			Mode: node.ModeProactive, Params: core.Params{K: 95, S: 10 * time.Minute},
			Seed:    60,
			Faults:  fault.DefaultPlan(60, duration),
			Breaker: node.BreakerConfig{Enabled: true},
			Audit:   audit.Config{Enabled: true, DeepEverySteps: 16},
		})
		if err := c.Populate(6, nil, 61); err != nil {
			t.Fatal(err)
		}
		return c
	}
	one := build()
	if err := one.RunParallel(duration, 1); err != nil {
		t.Fatal(err)
	}
	four := build()
	if err := four.RunParallel(duration, 4); err != nil {
		t.Fatal(err)
	}
	sameMachines(t, one, four)
	if vs := four.Audit(true); len(vs) > 0 {
		t.Fatalf("shipped tree violates invariants under the default plan: %v", vs)
	}
}
