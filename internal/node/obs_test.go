package node

import (
	"testing"
	"time"

	"sdfm/internal/core"
	"sdfm/internal/fault"
	"sdfm/internal/kreclaimd"
	"sdfm/internal/kstaled"
	"sdfm/internal/mem"
	"sdfm/internal/obs"
	"sdfm/internal/workload"
	"sdfm/internal/zswap"
)

// TestFarMemoryExportsReadTierState: every sdfm_far_*{tier="zswap"} series
// equals the state of the zswap pool at the bottom of the machine's tier
// stack, bare or under the fault wrapper, after a run that stores,
// rejects, loads and (on job exit) drops pages.
func TestFarMemoryExportsReadTierState(t *testing.T) {
	plan := &fault.Plan{Name: "errors", Seed: 3, Events: []fault.Event{
		{Kind: fault.CompressorError, At: 0, Duration: 2 * time.Hour, Magnitude: 0.3},
	}}
	wrappedPool := zswap.NewPool()
	wrapped := fault.WrapTier(wrappedPool, fault.NewInjector(plan, "m0"), func() time.Duration { return time.Minute })
	pool := zswap.NewPool()
	for _, tc := range []struct {
		name string
		tier zswap.FarMemory
		pool *zswap.Pool // the pool the series must read
	}{
		{"zswap", pool, pool},
		{"fault", wrapped, wrappedPool},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := obs.NewMulti().Observer(tc.name)
			m := newMachine(t, Config{
				Mode:   ModeProactive,
				Params: core.Params{K: 95, S: 5 * time.Minute},
				Seed:   52,
				Tier:   tc.tier,
				Obs:    o,
			})
			addWorkload(t, m, workload.BigtableServer, 1)
			j := addWorkload(t, m, workload.LogProcessor, 2)
			if err := m.Run(time.Hour); err != nil {
				t.Fatal(err)
			}
			if err := m.RemoveJob(j); err != nil {
				t.Fatal(err)
			}
			st := tc.pool.Stats()
			if st.StoredPages == 0 {
				t.Fatal("the pool stored nothing; the comparison is vacuous")
			}
			if tc.pool.DroppedPages() == 0 {
				t.Fatal("the job exit dropped no pages; the dropped series went untested")
			}
			l := obs.Label{Key: "tier", Value: "zswap"}
			for name, want := range map[string]uint64{
				"sdfm_far_stored_pages_total":   st.StoredPages,
				"sdfm_far_zero_pages_total":     st.ZeroPages,
				"sdfm_far_rejected_pages_total": st.RejectedPages,
				"sdfm_far_full_rejects_total":   st.FullRejects,
				"sdfm_far_loaded_pages_total":   st.LoadedPages,
				"sdfm_far_dropped_pages_total":  tc.pool.DroppedPages(),
				"sdfm_far_payload_bytes_total":  st.PayloadBytes,
			} {
				if got := o.Counter(name, "", l).Value(); got != float64(want) {
					t.Errorf("%s{tier=\"zswap\"} = %v, pool reports %d", name, got, want)
				}
			}
		})
	}
	if wrapped.TierStats().InjectedErrors == 0 {
		t.Error("the fault plan injected no store errors; the wrapper sat idle")
	}
}

// storeTally is a tier that counts what reaches it: Prime calls (one per
// ReclaimCold pass) and every store, by outcome, as kreclaimd files them.
type storeTally struct {
	zswap.FarMemory
	primes int
	res    kreclaimd.Result
}

func (s *storeTally) Inner() zswap.FarMemory { return s.FarMemory }

func (s *storeTally) Prime(m *mem.Memcg, ids []mem.PageID) {
	s.primes++
	s.FarMemory.Prime(m, ids)
}

func (s *storeTally) Store(m *mem.Memcg, id mem.PageID) zswap.StoreResult {
	sr := s.FarMemory.Store(m, id)
	s.res.CPUTime += sr.CPUTime
	switch sr.Outcome {
	case zswap.StoreOK, zswap.StoreZeroFilled:
		s.res.Stored++
		s.res.StoredBytes += uint64(sr.CompressedSize)
	case zswap.StoreRejectedIncompressible:
		s.res.Rejected++
	case zswap.StoreRejectedFull:
		s.res.PoolFull++
	case zswap.StoreErrored:
		s.res.Errored++
	}
	return sr
}

// scanTally sums, step by step, what the machine's trackers recorded:
// scans, pages walked, modelled CPU, and the promotions harvested (those
// the promotion histogram gained, less the faults it was told of). A
// tracker a crash replaced counts from zero.
type scanTally struct {
	scans, pages int
	cpu          time.Duration
	harvested    uint64
}

func (s *scanTally) step(t *testing.T, m *Machine) {
	t.Helper()
	type snap struct {
		tr         *kstaled.Tracker
		scans      uint64
		cpu        time.Duration
		promos     uint64
		promoFault uint64
	}
	pre := make(map[*Job]snap)
	for _, j := range m.Jobs() {
		pre[j] = snap{j.Tracker, j.Tracker.Scans(), j.Tracker.CPUTime(), j.Tracker.Promotions().Total(), j.Promotions}
	}
	if err := m.Step(); err != nil {
		t.Fatal(err)
	}
	for _, j := range m.Jobs() {
		p := pre[j]
		if j.Tracker != p.tr {
			p = snap{promoFault: p.promoFault}
		}
		n := int(j.Tracker.Scans() - p.scans)
		s.scans += n
		s.pages += n * j.Memcg.NumPages()
		s.cpu += j.Tracker.CPUTime() - p.cpu
		s.harvested += j.Tracker.Promotions().Total() - p.promos - (j.Promotions - p.promoFault)
	}
}

// TestDaemonExportsMatchMachineTotals: every sdfm_kstaled_* and
// sdfm_kreclaimd_*{kind} series equals what the machine's trackers and
// tier saw, over a proactive machine whose run crashes and meets every
// store outcome (a capacity-bounded pool behind a compressor-error window)
// and a reactive machine under direct reclaim. Each machine's other kind
// stays at zero, and the totals keep kreclaimd.Result's invariant.
func TestDaemonExportsMatchMachineTotals(t *testing.T) {
	plan := &fault.Plan{Name: "errors-crash", Seed: 3, Events: []fault.Event{
		{Kind: fault.CompressorError, At: 0, Duration: 3 * time.Hour, Magnitude: 0.3},
		{Kind: fault.MachineCrash, Machine: "m0", At: time.Hour},
	}}
	proactiveWL := []*workload.Archetype{workload.BigtableServer, workload.LogProcessor}
	reactiveWL := []*workload.Archetype{workload.WebFrontend, workload.BigtableServer, workload.LogProcessor}
	for _, tc := range []struct {
		kind     string
		mode     Mode
		capacity uint64
		jobs     []*workload.Archetype
		dramFrac float64 // of the jobs' initial footprint; 0 leaves the default
	}{
		{"proactive", ModeProactive, 2 << 20, proactiveWL, 0},
		{"pressure", ModeReactive, 0, reactiveWL, 0.9},
	} {
		t.Run(tc.kind, func(t *testing.T) {
			var pool *zswap.Pool
			if tc.capacity > 0 {
				pool = zswap.NewPool(zswap.WithCapacity(tc.capacity))
			} else {
				pool = zswap.NewPool()
			}
			tier := &storeTally{FarMemory: pool}
			cfg := Config{
				Mode:     tc.mode,
				Params:   core.Params{K: 95, S: 5 * time.Minute},
				Seed:     54,
				Tier:     tier,
				Injector: fault.NewInjector(plan, "m0"),
			}
			if tc.dramFrac > 0 {
				var pages int
				for i, a := range tc.jobs {
					w, err := workload.New(workload.Config{Archetype: a, Name: a.Name, Seed: int64(i + 1)})
					if err != nil {
						t.Fatal(err)
					}
					pages += w.Pages()
				}
				cfg.DRAMBytes = uint64(float64(pages) * mem.PageSize * tc.dramFrac)
			}
			o := obs.NewMulti().Observer(tc.kind)
			cfg.Obs = o
			m := newMachine(t, cfg)
			for i, a := range tc.jobs {
				addWorkload(t, m, a, int64(i+1))
			}
			var scans scanTally
			for m.Now() < 3*time.Hour {
				scans.step(t, m)
			}

			got := func(name string, labels ...obs.Label) float64 {
				return o.Counter(name, "", labels...).Value()
			}
			for name, want := range map[string]float64{
				"sdfm_kstaled_scans_total":         float64(scans.scans),
				"sdfm_kstaled_pages_scanned_total": float64(scans.pages),
				"sdfm_kstaled_cpu_seconds_total":   scans.cpu.Seconds(),
				"sdfm_kstaled_promotions_total":    float64(scans.harvested),
			} {
				if v := got(name); v != want {
					t.Errorf("%s = %v, trackers recorded %v", name, v, want)
				}
			}
			if scans.harvested == 0 || scans.cpu != time.Duration(scans.pages)*kstaled.DefaultCostPerPage {
				t.Errorf("scans harvested %d promotions, cost %v for %d pages", scans.harvested, scans.cpu, scans.pages)
			}

			res := tier.res
			res.Errored = int(m.FaultStats().InjectedErrors) // refused above the tally
			passes := tier.primes
			if tc.mode == ModeReactive {
				passes = m.pressureReclaim.passes // direct reclaim does not prime
				if runs, stall := m.PressureEvents(); runs == 0 || stall != res.CPUTime {
					t.Errorf("%d pressure runs stalled %v; reclaim compressed for %v", runs, stall, res.CPUTime)
				}
			}
			if m.FaultStats().Crashes != 1 || passes == 0 || res.Stored == 0 || res.Rejected == 0 || res.Errored == 0 ||
				(tc.mode == ModeProactive && res.PoolFull == 0) {
				t.Fatalf("fixture: %d crashes, %d passes, outcomes %+v", m.FaultStats().Crashes, passes, res)
			}
			for _, k := range []string{"proactive", "pressure"} {
				want := map[string]float64{
					"sdfm_kreclaimd_passes_total":         float64(passes),
					"sdfm_kreclaimd_stored_pages_total":   float64(res.Stored),
					"sdfm_kreclaimd_rejected_pages_total": float64(res.Rejected),
					"sdfm_kreclaimd_pool_full_total":      float64(res.PoolFull),
					"sdfm_kreclaimd_errored_pages_total":  float64(res.Errored),
					"sdfm_kreclaimd_stored_bytes_total":   float64(res.StoredBytes),
					"sdfm_kreclaimd_cpu_seconds_total":    res.CPUTime.Seconds(),
				}
				for name, w := range want {
					if k != tc.kind {
						w = 0
					}
					if v := got(name, obs.Label{Key: "kind", Value: k}); v != w {
						t.Errorf("%s{kind=%q} = %v, want %v", name, k, v, w)
					}
				}
			}
			// The totals are a Result too, and keep its invariant.
			totals := m.coldReclaim.Result
			if tc.mode == ModeReactive {
				totals = m.pressureReclaim.Result
			}
			if outcomes := res.Stored + res.Rejected + res.PoolFull + res.Errored; totals.Eligible != outcomes || totals.Scanned < totals.Eligible {
				t.Errorf("%s totals: %d scanned, %d eligible; the tally filed %d outcomes", tc.kind, totals.Scanned, totals.Eligible, outcomes)
			}
		})
	}
}
