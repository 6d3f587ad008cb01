// Package cluster provides a Borg-like cluster of page-accurate machines:
// weighted workload sampling, least-loaded scheduling with memory fit,
// lock-step simulation, A/B machine groups (the Figure 10 methodology),
// and the eviction-SLO accounting of §4.2.
//
// Machines share nothing but the telemetry they export, as in the paper
// (§5.1–5.3), so Step and Run advance them on every core between two
// barriers and merge their telemetry in machine order: one seed gives one
// result — machine state, trace bytes, metrics, errors — whatever the
// core count. There is one engine (advance) and no choice to make.
package cluster

import (
	"fmt"
	"hash/fnv"
	"time"

	"sdfm/internal/audit"
	"sdfm/internal/core"
	"sdfm/internal/fault"
	"sdfm/internal/mem"
	"sdfm/internal/node"
	"sdfm/internal/obs"
	"sdfm/internal/par"
	"sdfm/internal/simtime"
	"sdfm/internal/stats"
	"sdfm/internal/telemetry"
	"sdfm/internal/workload"
	"sdfm/internal/zswap"
)

// Config describes a cluster.
type Config struct {
	Name     string
	Machines int
	// DRAMPerMachine is each machine's near-memory capacity.
	DRAMPerMachine uint64
	// Mode is the default far-memory mode for every machine.
	Mode node.Mode
	// ModeFn, when set, overrides Mode per machine index — used to build
	// control/experiment groups for A/B tests.
	ModeFn func(machineIdx int) node.Mode
	Params core.Params
	SLO    core.SLO
	// CollectSamples enables per-interval sample retention on machines.
	CollectSamples bool
	Seed           int64
	// Collector, when set, receives every machine's telemetry exports
	// (every 6 simulated minutes), each machine recording through its own
	// stage of it. One Step or Run call appends all of machine 0's
	// intervals, then machine 1's, and so on, however many workers ran
	// them; the entries wait in the stages until the call returns, so a
	// caller streaming a long run to a tracestore.Writer bounds that
	// staging by calling Run in slices.
	// A machine stepped directly, outside the cluster's calls, exports
	// straight through.
	Collector *telemetry.Collector
	// Faults, when set and non-empty, injects the plan's faults: each
	// machine gets its own deterministic injector keyed by machine name.
	// A nil or empty plan leaves every machine byte-identical to a
	// cluster built without one.
	Faults *fault.Plan
	// Breaker configures the per-job promotion-SLO circuit breaker on
	// every machine; disabled by default.
	Breaker node.BreakerConfig
	// Audit opts every machine into the invariant auditor; a violation
	// fails the offending machine's step with an error wrapping
	// audit.ErrViolation.
	Audit audit.Config
	// TierFn, when set, supplies machine i's far-memory tier instead of
	// the default per-machine zswap pool. The chaos harness injects
	// instrumented tiers this way; nil keeps the default.
	TierFn func(machineIdx int) zswap.FarMemory
	// Obs, when set, gives every machine its own observer (process
	// "<cluster>/<machine>", labels cluster and machine). Each machine
	// writes only to its own observer, so instrumented output does not
	// depend on how many workers stepped the machines. Nil disables
	// instrumentation.
	Obs *obs.Multi
}

// Cluster is a set of machines under one scheduler.
type Cluster struct {
	cfg      Config
	machines []*node.Machine
	// stages[i] is machine i's stage of cfg.Collector; empty without one.
	stages []*telemetry.Collector
	jobs   int
}

// New builds the cluster's machines.
func New(cfg Config) (*Cluster, error) {
	if cfg.Machines <= 0 {
		return nil, fmt.Errorf("cluster: %q with %d machines", cfg.Name, cfg.Machines)
	}
	if cfg.DRAMPerMachine == 0 {
		return nil, fmt.Errorf("cluster: %q with zero DRAM per machine", cfg.Name)
	}
	c := &Cluster{cfg: cfg}
	for i := 0; i < cfg.Machines; i++ {
		mode := cfg.Mode
		if cfg.ModeFn != nil {
			mode = cfg.ModeFn(i)
		}
		name := fmt.Sprintf("m%04d", i)
		var tier zswap.FarMemory
		if cfg.TierFn != nil {
			tier = cfg.TierFn(i)
		}
		var stage *telemetry.Collector
		if cfg.Collector != nil {
			stage = cfg.Collector.Stage()
			c.stages = append(c.stages, stage)
		}
		var observer *obs.Observer
		if cfg.Obs != nil {
			observer = cfg.Obs.Observer(cfg.Name+"/"+name,
				obs.Label{Key: "cluster", Value: cfg.Name},
				obs.Label{Key: "machine", Value: name})
		}
		m, err := node.NewMachine(node.Config{
			Name:           name,
			Cluster:        cfg.Name,
			DRAMBytes:      cfg.DRAMPerMachine,
			Mode:           mode,
			Params:         cfg.Params,
			SLO:            cfg.SLO,
			Tier:           tier,
			CollectSamples: cfg.CollectSamples,
			Seed:           cfg.Seed + int64(i),
			Collector:      stage,
			Injector:       fault.NewInjector(cfg.Faults, name),
			Breaker:        cfg.Breaker,
			Audit:          cfg.Audit,
			Obs:            observer,
		})
		if err != nil {
			return nil, err
		}
		c.machines = append(c.machines, m)
	}
	return c, nil
}

// Machines returns all machines.
func (c *Cluster) Machines() []*node.Machine { return c.machines }

// JobCount returns the number of jobs scheduled so far.
func (c *Cluster) JobCount() int { return c.jobs }

// Schedule places w on the machine with the most free memory that fits
// it, reserving the workload's full page footprint.
func (c *Cluster) Schedule(w *workload.Workload) (*node.Machine, *node.Job, error) {
	need := uint64(w.Pages()) * mem.PageSize
	var best *node.Machine
	var bestFree uint64
	for _, m := range c.machines {
		used := m.UsedBytes()
		cap := c.cfg.DRAMPerMachine
		if used+need > cap {
			continue
		}
		free := cap - used
		if best == nil || free > bestFree {
			best = m
			bestFree = free
		}
	}
	if best == nil {
		return nil, nil, fmt.Errorf("cluster: no machine fits %s (%d pages)", w.Name(), w.Pages())
	}
	j, err := best.AddJob(w)
	if err != nil {
		return nil, nil, err
	}
	c.jobs++
	return best, j, nil
}

// Populate samples n workloads from the weighted archetype mix and
// schedules each.
func (c *Cluster) Populate(n int, weights map[string]float64, seed int64) error {
	if weights == nil {
		weights = map[string]float64{}
		for _, a := range workload.Archetypes {
			weights[a.Name] = 1
		}
	}
	rng := simtime.Rand(seed, "cluster-populate/"+c.cfg.Name)
	for i := 0; i < n; i++ {
		total := 0.0
		for _, a := range workload.Archetypes {
			total += weights[a.Name]
		}
		u := rng.Float64() * total
		arch := workload.Archetypes[len(workload.Archetypes)-1]
		for _, a := range workload.Archetypes {
			u -= weights[a.Name]
			if u < 0 {
				arch = a
				break
			}
		}
		w, err := workload.New(workload.Config{
			Archetype: arch,
			Name:      fmt.Sprintf("%s-%03d", arch.Name, i),
			Seed:      seed + int64(i)*7919,
		})
		if err != nil {
			return err
		}
		if _, _, err := c.Schedule(w); err != nil {
			return err
		}
	}
	return nil
}

// Step advances every machine one scan period.
func (c *Cluster) Step() error {
	return c.advance(par.Workers(), (*node.Machine).Step)
}

// Run advances every machine until the given time.
func (c *Cluster) Run(until time.Duration) error {
	return c.RunParallel(until, par.Workers())
}

// RunParallel is Run on at most the given number of workers (one when it
// is less); Run uses par.Workers(). The result does not depend on the
// number — only tests and benchmarks have a reason to name one.
func (c *Cluster) RunParallel(until time.Duration, workers int) error {
	return c.advance(workers, func(m *node.Machine) error { return m.Run(until) })
}

// advance is the one stepping engine: it calls step once on every machine
// (par.For; machines share no mutable state) and returns when all have
// finished. Telemetry is held in each machine's stage meanwhile and
// flushed in machine order after the join. Nothing observable depends on
// workers or on scheduling, failures included: each machine's error and
// panic are kept in its own slot, so every machine runs to the end of
// step or to its own first failure, every stage is flushed, and then the
// lowest-numbered failing machine's error is returned — or its panic
// re-raised here, on the caller's goroutine, where the caller's recover
// can see it. A sink error surfaces at the flush, as the error of the
// machine whose entry the sink refused.
func (c *Cluster) advance(workers int, step func(*node.Machine) error) error {
	n := len(c.machines)
	flushes := make([]func() error, len(c.stages))
	for i, s := range c.stages {
		flushes[i] = s.Hold()
	}
	errs := make([]error, n)
	panics := make([]any, n)
	_ = par.For(n, workers, func(_, i int) error { // fn never fails
		defer func() { panics[i] = recover() }()
		errs[i] = step(c.machines[i])
		return nil
	})

	for i, flush := range flushes {
		if err := flush(); errs[i] == nil {
			errs[i] = err
		}
	}
	for i := range c.machines {
		if panics[i] != nil {
			panic(panics[i])
		}
		if errs[i] != nil {
			return errs[i]
		}
	}
	return nil
}

// Evictions sums evictions across machines.
func (c *Cluster) Evictions() int {
	n := 0
	for _, m := range c.machines {
		n += m.Evictions()
	}
	return n
}

// EvictionSLO reports the eviction rate per job over the run so far; the
// production system's eviction SLO was never breached in 18 months.
func (c *Cluster) EvictionSLO() float64 {
	if c.jobs == 0 {
		return 0
	}
	return float64(c.Evictions()) / float64(c.jobs)
}

// CoverageSummary summarizes per-machine cold-memory coverage across
// machines that have any cold memory (Figure 6's per-cluster statistic).
func (c *Cluster) CoverageSummary() stats.Summary {
	var vals []float64
	for _, m := range c.machines {
		if m.ColdPagesAtMin() > 0 {
			vals = append(vals, m.Coverage())
		}
	}
	return stats.Summarize(vals)
}

// ColdFractionSummary summarizes per-machine cold fractions (Figure 2's
// per-cluster statistic).
func (c *Cluster) ColdFractionSummary() stats.Summary {
	var vals []float64
	for _, m := range c.machines {
		vals = append(vals, m.ColdFraction())
	}
	return stats.Summarize(vals)
}

// FaultStats sums fault and degradation counters across machines.
func (c *Cluster) FaultStats() node.FaultStats {
	var total node.FaultStats
	for _, m := range c.machines {
		fs := m.FaultStats()
		total.Crashes += fs.Crashes
		total.StalledSteps += fs.StalledSteps
		total.WatchdogRestarts += fs.WatchdogRestarts
		total.DroppedExports += fs.DroppedExports
		total.ChurnKills += fs.ChurnKills
		total.BreakerTrips += fs.BreakerTrips
		total.BackoffEvents += fs.BackoffEvents
		total.InjectedErrors += fs.InjectedErrors
		total.SlowedStores += fs.SlowedStores
		total.SlowedLoads += fs.SlowedLoads
	}
	return total
}

// Audit runs the invariant catalogue against every machine's current
// state and returns all violations found, regardless of whether per-step
// auditing is configured. deep includes the full-recount checks.
func (c *Cluster) Audit(deep bool) []audit.Violation {
	var vs []audit.Violation
	for _, m := range c.machines {
		vs = append(vs, m.Audit(deep)...)
	}
	return vs
}

// Fingerprint reduces every machine's observable state to one FNV-64a
// hash. Two runs of the same seeded configuration must agree bit for
// bit; the chaos harness uses this to detect nondeterminism.
func (c *Cluster) Fingerprint() uint64 {
	h := fnv.New64a()
	for _, m := range c.machines {
		m.WriteFingerprint(h)
	}
	return h.Sum64()
}

// Group returns the machines currently in the given mode (A/B analysis).
func (c *Cluster) Group(mode node.Mode) []*node.Machine {
	var out []*node.Machine
	for i, m := range c.machines {
		got := c.cfg.Mode
		if c.cfg.ModeFn != nil {
			got = c.cfg.ModeFn(i)
		}
		if got == mode {
			out = append(out, m)
		}
	}
	return out
}
