package main

import (
	"fmt"
	"hash/fnv"
	"time"

	"sdfm/internal/cluster"
	"sdfm/internal/core"
	"sdfm/internal/kstaled"
	"sdfm/internal/node"
	"sdfm/internal/pagedata"
	"sdfm/internal/telemetry"
	"sdfm/internal/workload"
	"sdfm/internal/zswap"
)

const scanPeriod = kstaled.DefaultScanPeriod

// coldStore is a large, mostly-cold job: the page population a
// warehouse-scale far-memory machine carries (a small hot core, a large
// archive tail), so scan and reclaim walks carry the step instead of
// access generation. It mirrors the archetype private to the root
// bench_test.go.
func coldStore(pages int) *workload.Archetype {
	return &workload.Archetype{
		Name: "bench-coldstore", PagesMin: pages, PagesMax: pages,
		Bands: []workload.Band{
			{Weight: 0.005, MinPeriod: 10 * time.Second, MaxPeriod: 2 * time.Minute},
			{Weight: 0.995, MinPeriod: 250 * time.Hour, MaxPeriod: 500 * time.Hour},
		},
		Mix:           pagedata.NewMix(0.05, 0.35, 0.25, 0.15, 0.20),
		WriteFraction: 0.15,
		CPUCores:      0.05,
		Priority:      100,
	}
}

// simState is a simulation under measurement: a cluster, or one machine.
type simState struct {
	cluster  *cluster.Cluster // nil for the single-machine workload
	machines []*node.Machine
	trace    *telemetry.Trace // the collector's sink, nil without telemetry
	now      time.Duration
	addJobMs float64 // set-up cost of one AddJob, when set-up timed it
	populate time.Duration
}

// pinned is a standard archetype with its page population pinned to the
// middle of its range. Left free, the seed would draw job sizes up to 3×
// apart and the work of a run would depend on the seed more than on the
// code; pinned, the seed still draws every page's reaccess period, data
// class and access times.
func pinned(a *workload.Archetype) *workload.Archetype {
	p := *a
	p.PagesMin = (a.PagesMin + a.PagesMax) / 2
	p.PagesMax = p.PagesMin
	return &p
}

// populate schedules n jobs cycling through the standard archetypes in
// their stable order — what Cluster.Populate does with equal weights, with
// the composition fixed instead of sampled, for the same reason.
func populate(c *cluster.Cluster, n int, seed int64) error {
	for i := 0; i < n; i++ {
		arch := pinned(workload.Archetypes[i%len(workload.Archetypes)])
		w, err := workload.New(workload.Config{
			Archetype: arch, Name: fmt.Sprintf("%s-%03d", arch.Name, i), Seed: seed + int64(i)*7919,
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

func simFleetEpisode(e *env) (*episode, error) {
	sz := e.sz
	trace := telemetry.NewTrace()
	c, err := cluster.New(cluster.Config{
		Name: "bench", Machines: sz.FleetMachines, DRAMPerMachine: sz.FleetDRAM,
		Mode: node.ModeProactive, Params: core.DefaultParams, SLO: core.DefaultSLO,
		Seed: e.seed, Collector: telemetry.NewCollector(trace),
	})
	if err != nil {
		return nil, err
	}
	s := &simState{cluster: c, machines: c.Machines(), trace: trace}
	t0 := time.Now()
	if err := populate(c, sz.FleetJobs, e.seed); err != nil {
		return nil, err
	}
	s.populate = time.Since(t0)
	s.now = time.Duration(sz.FleetWarmSteps) * scanPeriod
	if err := c.Run(s.now); err != nil {
		return nil, err
	}
	return measureSim(e, s, sz.FleetSteps)
}

func simColdstoreEpisode(e *env) (*episode, error) {
	sz := e.sz
	m, err := node.NewMachine(node.Config{
		Name: "bench", Cluster: "bench", DRAMBytes: 4 << 30,
		Mode: node.ModeProactive, Params: core.DefaultParams, SLO: core.DefaultSLO, Seed: e.seed,
	})
	if err != nil {
		return nil, err
	}
	s := &simState{machines: []*node.Machine{m}}
	arch := coldStore(sz.ColdPages)
	t0 := time.Now()
	for j := 0; j < sz.ColdJobs; j++ {
		w, err := workload.New(workload.Config{Archetype: arch, Name: fmt.Sprintf("cold-%d", j), Seed: e.seed + int64(j)})
		if err != nil {
			return nil, err
		}
		if _, err := m.AddJob(w); err != nil {
			return nil, err
		}
	}
	s.addJobMs = float64(time.Since(t0)) / float64(time.Millisecond) / float64(sz.ColdJobs)
	// The warm-up contains the whole initial drain of the cold tail into
	// zswap: the cold-start fill users pay on every run.
	for i := 0; i < sz.ColdWarmSteps; i++ {
		if err := m.Step(); err != nil {
			return nil, err
		}
	}
	s.now = m.Now()
	return measureSim(e, s, sz.ColdSteps)
}

// advance moves every machine one scan period. Untraced cluster runs go
// through Cluster.Run as the CLIs do; traced runs make the same
// Machine.Step calls themselves so each gets a span.
func (s *simState) advance(tr *tracer, step int) error {
	s.now += scanPeriod
	if s.cluster != nil && !tr.on {
		return s.cluster.Run(s.now)
	}
	parent := noSpan
	if s.cluster != nil {
		parent = tr.begin("cluster.Run", laneMain, int64(step), noSpan)
		defer tr.end(parent)
	}
	for _, m := range s.machines {
		sp := tr.begin("node.Machine.Step", laneMain, int64(step), parent)
		err := m.Step()
		tr.end(sp)
		if err != nil {
			return err
		}
	}
	tr.count("sim.machine_steps", int64(len(s.machines)))
	return nil
}

// simCounters are the public counters read at the window's edges.
type simCounters struct {
	tier       zswap.Stats
	stored     uint64 // Σ Job.StoredPages
	promotions uint64 // Σ Job.Promotions
	entries    int
}

func (s *simState) counters() simCounters {
	var c simCounters
	for _, m := range s.machines {
		st := m.Tier().Stats()
		c.tier.StoredPages += st.StoredPages
		c.tier.LoadedPages += st.LoadedPages
		c.tier.RejectedPages += st.RejectedPages
		for _, j := range m.Jobs() {
			c.stored += j.StoredPages
			c.promotions += j.Promotions
		}
	}
	if s.trace != nil {
		c.entries = s.trace.Len()
	}
	return c
}

// fingerprint reduces everything observable about the machines to one hash.
func (s *simState) fingerprint() uint64 {
	if s.cluster != nil {
		return s.cluster.Fingerprint()
	}
	h := fnv.New64a()
	for _, m := range s.machines {
		m.WriteFingerprint(h)
	}
	return h.Sum64()
}

// coverage is far-memory pages over cold pages at the minimum threshold,
// across all machines.
func (s *simState) coverage() float64 {
	var comp, cold uint64
	for _, m := range s.machines {
		comp += m.CompressedPages()
		cold += m.ColdPagesAtMin()
	}
	if cold == 0 {
		return 0
	}
	return float64(comp) / float64(cold)
}

// measureSim runs the measured window of a warmed simulation, checks its
// outputs and, in the probe episode, runs the layer probes on the final
// state.
func measureSim(e *env, s *simState, steps int) (*episode, error) {
	ep := &episode{}
	before := s.counters()
	w := e.begin(ep, steps)
	for i := 0; i < steps; i++ {
		ep.attempted += int64(len(s.machines))
		if err := s.advance(e.tr, i); err != nil {
			// A failed step leaves the simulation unusable; the episode
			// ends here and is reported as failed.
			ep.failed++
			ep.violate("step %d: %v", i, err)
			break
		}
		w.lap()
	}
	w.finish()
	after := s.counters()
	ep.work = int64(steps * len(s.machines))

	var violations []string
	for _, m := range s.machines {
		for _, v := range m.Audit(true) {
			violations = append(violations, v.String())
		}
	}
	ep.failed += int64(len(violations))
	checkSim(ep, violations, s.coverage())
	if s.trace != nil {
		checkEntries(ep, s.trace.Entries, len(s.trace.Thresholds))
	}

	ep.exactf("sim.fingerprint", "%016x", s.fingerprint())
	ep.exactf("sim.machine_steps", "%d", ep.work)
	ep.exactf("sim.stored_pages", "%d", after.tier.StoredPages-before.tier.StoredPages)
	ep.exactf("sim.loaded_pages", "%d", after.tier.LoadedPages-before.tier.LoadedPages)
	ep.exactf("sim.rejected_pages", "%d", after.tier.RejectedPages-before.tier.RejectedPages)
	ep.exactf("sim.promotions", "%d", after.promotions-before.promotions)
	ep.exactf("sim.telemetry_entries", "%d", after.entries-before.entries)

	if e.probe && len(ep.violations) == 0 {
		ep.layer = probeSim(e, s, ep, before, after)
	}
	return ep, nil
}

// checkSim is the simulation's output check: a deep audit of every machine
// finds nothing, and far memory holds some but not all of the cold pages.
func checkSim(ep *episode, auditViolations []string, coverage float64) {
	for _, v := range auditViolations {
		ep.violate("audit: %s", v)
	}
	if !(coverage > 0 && coverage < 1) {
		ep.violate("coverage %.4f outside (0, 1)", coverage)
	}
}

// checkEntries validates telemetry entries the way the controller's ingest
// does.
func checkEntries(ep *episode, entries []telemetry.Entry, thresholds int) {
	if len(entries) == 0 {
		ep.violate("telemetry: no entries exported")
	}
	for i := range entries {
		if err := entries[i].Validate(thresholds); err != nil {
			ep.violate("telemetry entry %d: %v", i, err)
			return
		}
		if err := entries[i].VerifyChecksum(); err != nil {
			ep.violate("telemetry entry %d: %v", i, err)
			return
		}
	}
}
