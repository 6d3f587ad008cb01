package node

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"sdfm/internal/core"
	"sdfm/internal/kstaled"
	"sdfm/internal/mem"
	"sdfm/internal/pagedata"
	"sdfm/internal/telemetry"
	"sdfm/internal/workload"
	"sdfm/internal/zswap"
)

const gib = uint64(1) << 30

func newMachine(t *testing.T, cfg Config) *Machine {
	t.Helper()
	if cfg.Name == "" {
		cfg.Name = "m0"
	}
	if cfg.Cluster == "" {
		cfg.Cluster = "test"
	}
	if cfg.DRAMBytes == 0 {
		cfg.DRAMBytes = 4 * gib
	}
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func addWorkload(t *testing.T, m *Machine, arch *workload.Archetype, seed int64) *Job {
	t.Helper()
	w, err := workload.New(workload.Config{Archetype: arch, Name: arch.Name, Seed: seed, Start: m.Now()})
	if err != nil {
		t.Fatal(err)
	}
	j, err := m.AddJob(w)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func TestNewMachineValidation(t *testing.T) {
	if _, err := NewMachine(Config{Name: "x"}); err == nil {
		t.Error("zero DRAM accepted")
	}
	if _, err := NewMachine(Config{Name: "x", DRAMBytes: gib, Params: core.Params{K: 300}}); err == nil {
		t.Error("bad params accepted")
	}
}

func TestProactiveCompressesColdMemory(t *testing.T) {
	m := newMachine(t, Config{
		Mode:   ModeProactive,
		Params: core.Params{K: 95, S: 10 * time.Minute},
		Seed:   1,
	})
	addWorkload(t, m, workload.LogProcessor, 1)
	addWorkload(t, m, workload.KVCache, 2)
	if err := m.Run(4 * time.Hour); err != nil {
		t.Fatal(err)
	}
	if m.CompressedPages() == 0 {
		t.Fatal("no pages compressed after 4 h")
	}
	cov := m.Coverage()
	if cov <= 0.02 || cov > 1 {
		t.Errorf("coverage = %.3f, want meaningful (0.02, 1]", cov)
	}
	if m.ColdFraction() <= 0 {
		t.Error("no cold memory found")
	}
	if m.Evictions() != 0 {
		t.Errorf("evictions = %d with ample DRAM", m.Evictions())
	}
	// The zswap pool saves DRAM.
	if p, ok := m.Tier().(*zswap.Pool); ok {
		if p.SavedBytes() == 0 {
			t.Error("no DRAM saved")
		}
	}
}

func TestPromotionFaultPath(t *testing.T) {
	// Batch analytics with a scheduled full scan: compressed pages get
	// touched again, forcing real promotion faults.
	arch := *workload.BatchAnalytics
	arch.PagesMin, arch.PagesMax = 3000, 4000
	arch.ScanEvery = 2 * time.Hour
	m := newMachine(t, Config{
		Mode:           ModeProactive,
		Params:         core.Params{K: 90, S: 10 * time.Minute},
		CollectSamples: true,
		Seed:           2,
	})
	j := addWorkload(t, m, &arch, 3)
	if err := m.Run(5 * time.Hour); err != nil {
		t.Fatal(err)
	}
	if j.Promotions == 0 {
		t.Fatal("no promotion faults despite periodic scans")
	}
	if j.DecompressCPU == 0 {
		t.Error("promotions charged no decompression CPU")
	}
	if len(j.LatencySamples()) == 0 {
		t.Error("no latency samples collected")
	}
	// Promotion latencies are single-digit microseconds (µs units).
	for _, l := range j.LatencySamples()[:min(5, len(j.LatencySamples()))] {
		if l < 1 || l > 30 {
			t.Errorf("promotion latency %v µs outside plausible range", l)
		}
	}
	if j.CompressionRatio() <= 1 {
		t.Errorf("compression ratio = %.2f", j.CompressionRatio())
	}
}

func TestDisabledModeCompressesNothing(t *testing.T) {
	m := newMachine(t, Config{Mode: ModeDisabled, Seed: 3})
	addWorkload(t, m, workload.LogProcessor, 1)
	if err := m.Run(2 * time.Hour); err != nil {
		t.Fatal(err)
	}
	if m.CompressedPages() != 0 {
		t.Error("disabled machine compressed pages")
	}
	if m.Coverage() != 0 {
		t.Error("disabled machine reports coverage")
	}
}

func TestReactiveModeOnlyCompressesUnderPressure(t *testing.T) {
	// Plenty of DRAM: reactive mode should never compress.
	m := newMachine(t, Config{Mode: ModeReactive, DRAMBytes: 4 * gib, Seed: 4})
	addWorkload(t, m, workload.LogProcessor, 1)
	if err := m.Run(2 * time.Hour); err != nil {
		t.Fatal(err)
	}
	if m.CompressedPages() != 0 {
		t.Error("reactive machine compressed without pressure")
	}
	runs, stall := m.PressureEvents()
	if runs != 0 || stall != 0 {
		t.Errorf("pressure events without pressure: %d, %v", runs, stall)
	}
}

func TestReactiveModeStallsUnderPressure(t *testing.T) {
	// Size DRAM below the jobs' footprint: direct reclaim must kick in,
	// compress coldest-first, and charge synchronous stall time.
	wl, err := workload.New(workload.Config{Archetype: workload.LogProcessor, Name: "logs", Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	dram := uint64(wl.Pages()) * mem.PageSize * 9 / 10
	m := newMachine(t, Config{Mode: ModeReactive, DRAMBytes: dram, Seed: 5})
	j, err := m.AddJob(wl)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(3 * time.Hour); err != nil {
		t.Fatal(err)
	}
	runs, stall := m.PressureEvents()
	if runs == 0 {
		t.Fatal("no pressure events despite overcommit")
	}
	if stall == 0 || j.StallTime == 0 {
		t.Error("direct reclaim charged no stall time")
	}
	if j.StoredPages == 0 {
		t.Error("pressure reclaim stored nothing")
	}
	if m.UsedBytes() > dram {
		t.Errorf("machine still over DRAM: %d > %d", m.UsedBytes(), dram)
	}
}

func TestEvictionUnderExtremePressure(t *testing.T) {
	// Two jobs, DRAM far below their combined footprint, proactive mode
	// (which never does direct reclaim): the low-priority job must be
	// evicted ("fail fast", §5.1).
	wl1, _ := workload.New(workload.Config{Archetype: workload.WebFrontend, Name: "web", Seed: 6})
	wl2, _ := workload.New(workload.Config{Archetype: workload.LogProcessor, Name: "logs", Seed: 7})
	dram := uint64(wl1.Pages()+wl2.Pages()) * mem.PageSize * 7 / 10
	m := newMachine(t, Config{Mode: ModeProactive, DRAMBytes: dram, Params: core.Params{K: 98, S: time.Hour}, Seed: 6})
	j1, err := m.AddJob(wl1)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := m.AddJob(wl2)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(time.Hour); err != nil {
		t.Fatal(err)
	}
	if m.Evictions() == 0 {
		t.Fatal("no eviction despite extreme overcommit")
	}
	// LogProcessor has priority 50 < WebFrontend 200.
	if j2.State != JobEvicted {
		t.Error("low-priority job not the victim")
	}
	if j1.State != JobRunning {
		t.Error("high-priority job evicted")
	}
	if m.UsedBytes() > dram {
		t.Error("machine still over capacity after eviction")
	}
}

func TestPromotionRateBoundedByController(t *testing.T) {
	if raceEnabled {
		t.Skip("multi-hour sim is too slow under the race detector; shorter node tests cover these paths")
	}
	// The controller picks the smallest SLO-feasible threshold, so
	// binding workloads ride the SLO boundary: realized time-averaged
	// rates must hug the target rather than run away. With simulated jobs
	// three orders of magnitude smaller than production (tens of MB vs
	// tens of GB) the per-interval promotion budget is a handful of
	// pages, so per-interval Poisson noise is expected; the invariant is
	// on the mean and median.
	target := core.DefaultSLO.TargetRatePerMin
	for _, arch := range workload.Archetypes {
		m := newMachine(t, Config{
			Mode:           ModeProactive,
			Params:         core.Params{K: 98, S: 10 * time.Minute},
			CollectSamples: true,
			Seed:           8,
		})
		j := addWorkload(t, m, arch, 9)
		if err := m.Run(8 * time.Hour); err != nil {
			t.Fatal(err)
		}
		samples := j.RateSamples()
		if len(samples) == 0 {
			t.Fatalf("%s: no rate samples", arch.Name)
		}
		var mean float64
		for _, r := range samples {
			mean += r
		}
		mean /= float64(len(samples))
		if mean > 4*target {
			t.Errorf("%s: mean rate %.5f more than 4x target %.5f: promotions unbounded", arch.Name, mean, target)
		}
		// Once the pool has seen the workload's behaviour (including any
		// inaugural scan burst for batch jobs), the controller must have
		// converged: the second half of the run stays near the target.
		second := samples[len(samples)/2:]
		var late float64
		for _, r := range second {
			late += r
		}
		late /= float64(len(second))
		if late > 2*target {
			t.Errorf("%s: post-convergence mean rate %.5f more than 2x target %.5f", arch.Name, late, target)
		}
		var sorted []float64
		sorted = append(sorted, samples...)
		sort.Float64s(sorted)
		median := sorted[len(sorted)/2]
		if median > 2*target {
			t.Errorf("%s: median rate %.5f more than 2x target %.5f", arch.Name, median, target)
		}
	}
}

func TestSetParamsPropagates(t *testing.T) {
	m := newMachine(t, Config{Mode: ModeProactive, Seed: 10})
	j := addWorkload(t, m, workload.KVCache, 1)
	p := core.Params{K: 80, S: 5 * time.Minute}
	if err := m.SetParams(p); err != nil {
		t.Fatal(err)
	}
	if j.Controller.Params() != p || m.Params() != p {
		t.Error("params not propagated")
	}
	if err := m.SetParams(core.Params{K: -5}); err == nil {
		t.Error("invalid params accepted")
	}
}

func TestTelemetryExport(t *testing.T) {
	trace := telemetry.NewTrace()
	m := newMachine(t, Config{
		Mode:      ModeProactive,
		Collector: telemetry.NewCollector(trace),
		Seed:      11,
	})
	addWorkload(t, m, workload.WebFrontend, 1)
	if err := m.Run(30 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if trace.Len() == 0 {
		t.Fatal("no telemetry exported")
	}
	e := trace.Entries[0]
	if e.Key.Cluster != "test" || e.Key.Machine != "m0" {
		t.Errorf("entry key = %+v", e.Key)
	}
	if e.TotalPages == 0 {
		t.Error("entry has no pages")
	}
	// Tails must be monotone (validated on append) and cold <= total.
	if e.ColdTails[0] > e.TotalPages {
		t.Error("cold exceeds total")
	}
	// Each entry states the interval it covers: the time since the
	// previous export (since the job started, for the first).
	var prev int64
	for _, e := range trace.Entries {
		if got := float64(e.TimestampSec - prev); got != e.IntervalMinutes*60 {
			t.Errorf("entry at %ds covers %vs but states %v minutes", e.TimestampSec, got, e.IntervalMinutes)
		}
		prev = e.TimestampSec
	}
}

func TestCPUOverheadFractionsSmall(t *testing.T) {
	m := newMachine(t, Config{
		Mode:   ModeProactive,
		Params: core.Params{K: 95, S: 10 * time.Minute},
		Seed:   12,
	})
	j := addWorkload(t, m, workload.BigtableServer, 13)
	if err := m.Run(4 * time.Hour); err != nil {
		t.Fatal(err)
	}
	comp := j.CPUOverheadCompress()
	decomp := j.CPUOverheadDecompress()
	if comp <= 0 {
		t.Error("no compression overhead recorded")
	}
	// The paper reports per-job overheads well under 1% of job CPU.
	if comp > 0.01 {
		t.Errorf("compression overhead %.4f of CPU, want < 1%%", comp)
	}
	if decomp > 0.01 {
		t.Errorf("decompression overhead %.4f of CPU, want < 1%%", decomp)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (uint64, uint64) {
		m := newMachine(t, Config{Mode: ModeProactive, Params: core.Params{K: 95, S: 10 * time.Minute}, Seed: 14})
		j := addWorkload(t, m, workload.KVCache, 14)
		if err := m.Run(2 * time.Hour); err != nil {
			t.Fatal(err)
		}
		return m.CompressedPages(), j.Promotions
	}
	c1, p1 := run()
	c2, p2 := run()
	if c1 != c2 || p1 != p2 {
		t.Errorf("nondeterministic: (%d,%d) vs (%d,%d)", c1, p1, c2, p2)
	}
}

// TestRecordedSizesMatchValidatingPool runs a mostly-cold job that writes
// on two same-seed machines, one on the default pool (which reuses the
// compressed size recorded for an unwritten page) and one on a validating
// pool (which compresses every store and checks each recorded size): the
// machines must not tell apart.
func TestRecordedSizesMatchValidatingPool(t *testing.T) {
	arch := &workload.Archetype{
		Name: "cold-writer", PagesMin: 4000, PagesMax: 4000,
		Bands: []workload.Band{
			{Weight: 0.02, MinPeriod: 10 * time.Second, MaxPeriod: 2 * time.Minute},
			{Weight: 0.98, MinPeriod: 3 * time.Hour, MaxPeriod: 6 * time.Hour},
		},
		Mix:           pagedata.NewMix(0.05, 0.35, 0.25, 0.15, 0.20),
		WriteFraction: 0.15,
		CPUCores:      0.05,
		Priority:      100,
	}
	run := func(tier zswap.FarMemory) (*Machine, *Job, string) {
		m := newMachine(t, Config{Mode: ModeProactive, Params: core.Params{K: 90, S: 10 * time.Minute}, Tier: tier, Seed: 3})
		j := addWorkload(t, m, arch, 3)
		for i := 0; i < 500; i++ {
			if err := m.Step(); err != nil {
				t.Fatal(err)
			}
		}
		var fp strings.Builder
		m.WriteFingerprint(&fp)
		return m, j, fp.String()
	}
	plain, job, want := run(nil)
	validating, _, got := run(zswap.NewPool(zswap.WithValidation()))
	if got != want {
		t.Errorf("validating pool's machine diverged:\n%s\ndefault pool's:\n%s", got, want)
	}
	if errs := validating.Tier().Stats().ValidationErrs; errs != 0 {
		t.Errorf("%d validation errors", errs)
	}
	known := 0
	for id := mem.PageID(0); int(id) < job.Memcg.NumPages(); id++ {
		if !job.Memcg.Flags(id).Has(mem.FlagCompressed) && job.Memcg.Meta(id).MemoSize != 0 {
			known++
		}
	}
	st := plain.Tier().Stats()
	t.Logf("stored %d, loaded %d, %d resident pages with a recorded size", st.StoredPages, st.LoadedPages, known)
	if st.LoadedPages == 0 || known == 0 {
		t.Error("fixture: no promoted page with a recorded size, so no store could reuse one")
	}
}

func TestModeString(t *testing.T) {
	if ModeProactive.String() != "proactive" || ModeReactive.String() != "reactive" ||
		ModeDisabled.String() != "disabled" || Mode(9).String() == "" {
		t.Error("Mode.String broken")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestRemoveJobReleasesFarMemory(t *testing.T) {
	m := newMachine(t, Config{Mode: ModeProactive, Params: core.Params{K: 95, S: 10 * time.Minute}, Seed: 20})
	j := addWorkload(t, m, workload.LogProcessor, 21)
	if err := m.Run(2 * time.Hour); err != nil {
		t.Fatal(err)
	}
	if m.CompressedPages() == 0 {
		t.Fatal("nothing compressed before removal")
	}
	used := m.UsedBytes()
	if err := m.RemoveJob(j); err != nil {
		t.Fatal(err)
	}
	if j.State != JobFinished {
		t.Errorf("state = %d", j.State)
	}
	if m.CompressedPages() != 0 {
		t.Error("far memory not released")
	}
	if m.UsedBytes() >= used {
		t.Error("usage did not drop after removal")
	}
	// Removing twice fails.
	if err := m.RemoveJob(j); err == nil {
		t.Error("double removal accepted")
	}
	// The machine keeps running fine with the job gone.
	if err := m.Run(m.Now() + 30*time.Minute); err != nil {
		t.Fatal(err)
	}
}

func TestJobChurnCycle(t *testing.T) {
	// Jobs come and go; the machine's control plane handles each
	// generation independently (the scenario the S parameter guards).
	m := newMachine(t, Config{Mode: ModeProactive, Params: core.Params{K: 95, S: 20 * time.Minute}, Seed: 22})
	for gen := 0; gen < 3; gen++ {
		j := addWorkload(t, m, workload.KVCache, int64(30+gen))
		if err := m.Run(m.Now() + 90*time.Minute); err != nil {
			t.Fatal(err)
		}
		if err := m.RemoveJob(j); err != nil {
			t.Fatal(err)
		}
	}
	finished := 0
	for _, j := range m.Jobs() {
		if j.State == JobFinished {
			finished++
		}
	}
	if finished != 3 {
		t.Errorf("finished = %d, want 3", finished)
	}
	if m.UsedBytes() != m.Tier().FootprintBytes() {
		t.Errorf("leaked resident accounting: used=%d footprint=%d", m.UsedBytes(), m.Tier().FootprintBytes())
	}
}

func TestMemcgGrowthAndLimit(t *testing.T) {
	// A growing job reaches its memcg limit: first zswap turns off for it
	// (no cycles wasted staving off the limit), then the job is killed
	// (fail fast, §5.1).
	arch := *workload.LogProcessor
	arch.PagesMin, arch.PagesMax = 3000, 3001
	arch.GrowthPerHour = 0.60 // +60% of footprint per hour
	arch.MemLimitFactor = 1.2 // killed at +20% resident

	m := newMachine(t, Config{
		Mode: ModeProactive, Params: core.Params{K: 95, S: 10 * time.Minute}, Seed: 50,
	})
	j := addWorkload(t, m, &arch, 51)
	if j.Memcg.LimitBytes == 0 {
		t.Fatal("limit not set from archetype")
	}
	start := j.Memcg.NumPages()
	if err := m.Run(4 * time.Hour); err != nil {
		t.Fatal(err)
	}
	if j.Memcg.NumPages() <= start {
		t.Fatal("job never grew")
	}
	if j.State != JobEvicted {
		t.Fatalf("job state = %d; want killed at limit", j.State)
	}
	if m.LimitKills() != 1 {
		t.Errorf("LimitKills = %d, want 1", m.LimitKills())
	}
	if m.Evictions() != 0 {
		t.Errorf("limit kill double-counted as eviction: %d", m.Evictions())
	}
}

func TestZswapOffAtLimitBeforeKill(t *testing.T) {
	// Between reaching ~the limit and being killed, no further reclaim
	// happens for the job: watch StoredPages stop growing once AtLimit.
	arch := *workload.LogProcessor
	arch.PagesMin, arch.PagesMax = 3000, 3001
	arch.GrowthPerHour = 0.10

	m := newMachine(t, Config{
		Mode: ModeProactive, Params: core.Params{K: 90, S: 10 * time.Minute}, Seed: 52,
	})
	j := addWorkload(t, m, &arch, 53)
	// Set a limit the job approaches but (during this run) does not blow
	// far past: usage must sit at the limit with zswap off.
	j.Memcg.LimitBytes = uint64(float64(j.Memcg.NumPages())*1.02) * mem.PageSize
	if err := m.Run(3 * time.Hour); err != nil {
		t.Fatal(err)
	}
	if j.State == JobRunning && j.Memcg.AtLimit() {
		// Job at limit but not past it: confirm reclaim is off now.
		before := j.StoredPages
		if err := m.Run(m.Now() + 30*time.Minute); err != nil {
			t.Fatal(err)
		}
		if j.State == JobRunning && j.StoredPages != before {
			t.Errorf("reclaim continued at memcg limit: %d -> %d", before, j.StoredPages)
		}
	}
}

func TestGrowthKeepsWorkloadMemcgInSync(t *testing.T) {
	arch := *workload.KVCache
	arch.PagesMin, arch.PagesMax = 2000, 2001
	arch.GrowthPerHour = 0.5
	m := newMachine(t, Config{Mode: ModeProactive, Params: core.Params{K: 95, S: 10 * time.Minute}, Seed: 54})
	j := addWorkload(t, m, &arch, 55)
	if err := m.Run(2 * time.Hour); err != nil {
		t.Fatal(err)
	}
	if j.Workload.Pages() != j.Memcg.NumPages() {
		t.Fatalf("workload %d pages vs memcg %d", j.Workload.Pages(), j.Memcg.NumPages())
	}
	if j.Memcg.NumPages() < 2900 {
		t.Errorf("pages = %d; expected ~+100%% over 2 h at 50%%/h", j.Memcg.NumPages())
	}
}

// TestControlLoopAllocatesNothing pins the agent's control loop at zero
// allocations per job in steady state: the interval's promotion delta is
// computed into per-job storage, not into fresh histograms, and once the
// controller's pool spans a day it evicts one observation per one it
// keeps. Each call advances the clock a scan period but runs no scan, so
// no page ages, and once the threshold has settled there is nothing left
// to store — stores (which do allocate, in the pool's arena) would show
// up as a moved StoredPages.
func TestControlLoopAllocatesNothing(t *testing.T) {
	m := newMachine(t, Config{
		Mode:   ModeProactive,
		Params: core.Params{K: 95, S: 10 * time.Minute},
		Seed:   1,
	})
	addWorkload(t, m, workload.LogProcessor, 1)
	addWorkload(t, m, workload.KVCache, 2)
	if err := m.Run(2 * time.Hour); err != nil {
		t.Fatal(err)
	}
	minutes := kstaled.DefaultScanPeriod.Minutes()
	loop := func() {
		m.now += kstaled.DefaultScanPeriod
		for _, j := range m.jobs {
			m.control(j, minutes)
		}
	}
	for end := m.now + core.PoolSpan + time.Hour; m.now < end; {
		loop()
	}
	stored := m.jobs[0].StoredPages + m.jobs[1].StoredPages
	if stored == 0 {
		t.Fatal("nothing was ever stored; the loop under test never reached reclaim")
	}
	if allocs := testing.AllocsPerRun(100, loop); allocs != 0 {
		t.Errorf("the control loop allocates %v times per step over two jobs", allocs)
	}
	if now := m.jobs[0].StoredPages + m.jobs[1].StoredPages; now != stored {
		t.Errorf("%d pages stored during the measurement; it was not a steady state", now-stored)
	}
	// A crash drops the baseline with the tracker: the first interval
	// after it sees the new tracker's promotions whole.
	if err := m.crash(); err != nil {
		t.Fatal(err)
	}
	j := m.jobs[0]
	j.Tracker.RecordPromotionFault(7)
	if got := j.promotionsSince(&j.prevPromo); got.Total() != 1 || got.Count(7) != 1 {
		t.Errorf("first interval after a crash: %d promotions, %d at age 7; want the one recorded", got.Total(), got.Count(7))
	}
	if got := j.promotionsSince(&j.prevPromo); got.Total() != 0 {
		t.Errorf("second interval after a crash repeats %d promotions", got.Total())
	}
}

// TestPromotionsSincePanicsOnBackwardsBucket: a base ahead of the tracker
// in any bucket means some reset missed a base; promotionsSince refuses
// to turn that into a huge unsigned delta.
func TestPromotionsSincePanicsOnBackwardsBucket(t *testing.T) {
	m := newMachine(t, Config{Mode: ModeProactive, Seed: 1})
	j := addWorkload(t, m, workload.WebFrontend, 1)
	j.Tracker.RecordPromotionFault(7)
	base := j.Tracker.Promotions().Counts()
	base[3]++
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("a bucket below its base did not panic")
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, "bucket 3 went backwards") {
			t.Fatalf("panic %q does not name the bucket", msg)
		}
	}()
	j.promotionsSince(&base)
}
