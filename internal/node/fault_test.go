package node

import (
	"errors"
	"slices"
	"testing"
	"time"

	"sdfm/internal/core"
	"sdfm/internal/fault"
	"sdfm/internal/mem"
	"sdfm/internal/telemetry"
	"sdfm/internal/workload"
	"sdfm/internal/zswap"
)

func TestBreakerEscalatesToOpenAndRecovers(t *testing.T) {
	m := newMachine(t, Config{Mode: ModeProactive, Breaker: BreakerConfig{Enabled: true}, Seed: 42})
	j := addWorkload(t, m, workload.WebFrontend, 1)
	cfg := &m.cfg.Breaker
	j.lastWSS = 1000

	slo := m.cfg.SLO.TargetRatePerMin
	violate := func() {
		j.intervalProm = uint64(slo*5*1000)*10 + 100 // well over the SLO rate
		m.updateBreaker(j, 5)
	}
	healthy := func() {
		j.intervalProm = 0
		m.updateBreaker(j, 5)
	}

	if j.BreakerState() != BreakerClosed {
		t.Fatalf("initial state %v", j.BreakerState())
	}
	// TripViolations consecutive violations escalate one backoff step.
	for s := 1; s <= maxBackoffSteps; s++ {
		for i := 0; i < cfg.TripViolations; i++ {
			violate()
		}
		if j.BreakerState() != BreakerBackoff || j.backoffSteps != s {
			t.Fatalf("after %d rounds: state %v steps %d, want backoff %d", s, j.BreakerState(), j.backoffSteps, s)
		}
	}
	if got := j.breakerPenalty(); got != maxBackoffSteps*backoffBuckets {
		t.Errorf("penalty %d buckets, want %d", got, maxBackoffSteps*backoffBuckets)
	}
	// Backoff exhausted: next full round opens the breaker.
	for i := 0; i < cfg.TripViolations; i++ {
		violate()
	}
	if j.BreakerState() != BreakerOpen || j.BreakerTrips() != 1 {
		t.Fatalf("state %v trips %d, want open with 1 trip", j.BreakerState(), j.BreakerTrips())
	}
	// Still open inside the cooldown, regardless of health.
	healthy()
	if j.BreakerState() != BreakerOpen {
		t.Fatal("breaker reopened before cooldown")
	}
	// Past the cooldown it half-opens, retaining the accumulated backoff.
	m.now += cfg.Cooldown + time.Second
	healthy()
	if j.BreakerState() != BreakerBackoff || j.backoffSteps == 0 {
		t.Fatalf("after cooldown: state %v steps %d, want backoff retained", j.BreakerState(), j.backoffSteps)
	}
	// Healthy intervals decay the backoff one step at a time.
	for i := 0; i < maxBackoffSteps+1; i++ {
		healthy()
	}
	if j.BreakerState() != BreakerClosed {
		t.Errorf("backoff did not decay to closed: %v", j.BreakerState())
	}
	if m.FaultStats().BackoffEvents == 0 || m.FaultStats().BreakerTrips != 1 {
		t.Errorf("machine counters %+v", m.FaultStats())
	}
}

func TestBreakerZeroValueStaysInert(t *testing.T) {
	m := newMachine(t, Config{Mode: ModeProactive, Seed: 43})
	if m.cfg.Breaker.Enabled || m.cfg.Breaker.TripViolations != 0 {
		t.Errorf("zero-value breaker config mutated: %+v", m.cfg.Breaker)
	}
}

func TestMachineCrashRestartsJobsInPlace(t *testing.T) {
	crashAt := 40 * time.Minute
	plan := &fault.Plan{Name: "crash", Events: []fault.Event{
		{Kind: fault.MachineCrash, Machine: "m0", At: crashAt},
	}}
	trace := telemetry.NewTrace()
	m := newMachine(t, Config{
		Mode:      ModeProactive,
		Params:    core.Params{K: 95, S: 5 * time.Minute},
		Seed:      44,
		Injector:  fault.NewInjector(plan, "m0"),
		Collector: telemetry.NewCollector(trace),
	})
	j := addWorkload(t, m, workload.BigtableServer, 2)
	if err := m.Run(crashAt - time.Minute); err != nil {
		t.Fatal(err)
	}
	if m.CompressedPages() == 0 {
		t.Fatal("nothing compressed before the crash; test needs a warmer setup")
	}
	// Run through the crash: the pool is dropped, the job restarts in
	// place, and the agent's promotion bases restart with its tracker (a
	// stale base would see the counters go backwards and panic).
	if err := m.Run(crashAt + time.Minute); err != nil {
		t.Fatal(err)
	}
	fs := m.FaultStats()
	if fs.Crashes != 1 {
		t.Fatalf("crashes = %d, want 1", fs.Crashes)
	}
	if j.State != JobRunning {
		t.Errorf("job state %s after crash, want running", jobStateName(j.State))
	}
	if got := m.CompressedPages(); got != 0 {
		t.Errorf("%d compressed pages survived the crash", got)
	}
	// The controller restarted: its warmup applies from the crash, so
	// zswap is off for the job until S elapses again.
	if j.Controller.Enabled(m.Now()) {
		t.Error("controller enabled immediately after restart despite warmup")
	}
	if err := m.Run(crashAt + 2*time.Hour); err != nil {
		t.Fatalf("post-crash run: %v", err)
	}
	if m.CompressedPages() == 0 {
		t.Error("machine never recovered compression after restart")
	}
}

func TestWatchdogRestartsStalledDaemons(t *testing.T) {
	plan := &fault.Plan{Name: "stall", Events: []fault.Event{
		{Kind: fault.DaemonStall, Machine: "m0", At: 10 * time.Minute, Duration: 20 * time.Minute},
	}}
	m := newMachine(t, Config{
		Mode:     ModeProactive,
		Params:   core.Params{K: 95, S: time.Minute},
		Seed:     45,
		Injector: fault.NewInjector(plan, "m0"),
	})
	addWorkload(t, m, workload.WebFrontend, 3)
	if err := m.Run(time.Hour); err != nil {
		t.Fatal(err)
	}
	fs := m.FaultStats()
	if fs.StalledSteps == 0 {
		t.Fatal("stall window produced no stalled steps")
	}
	if fs.WatchdogRestarts == 0 {
		t.Fatal("watchdog never restarted the wedged daemon")
	}
	// The watchdog catches each wedge on the following step, so restarts
	// track stalls and the daemon is not left wedged at the end.
	if fs.WatchdogRestarts < fs.StalledSteps-1 || fs.WatchdogRestarts > fs.StalledSteps {
		t.Errorf("restarts %d vs stalls %d: watchdog not keeping up", fs.WatchdogRestarts, fs.StalledSteps)
	}
	if m.daemonWedged {
		t.Error("daemon left wedged after the window")
	}
}

func TestChurnBurstFinishesLowestPriorityFirst(t *testing.T) {
	plan := &fault.Plan{Name: "churn", Events: []fault.Event{
		{Kind: fault.ChurnBurst, Machine: "m0", At: 30 * time.Minute, Magnitude: 0.5},
	}}
	m := newMachine(t, Config{Mode: ModeProactive, Seed: 46, Injector: fault.NewInjector(plan, "m0")})
	web := addWorkload(t, m, workload.WebFrontend, 4)   // priority 200
	logs := addWorkload(t, m, workload.LogProcessor, 5) // priority 50
	if err := m.Run(time.Hour); err != nil {
		t.Fatal(err)
	}
	if got := m.FaultStats().ChurnKills; got != 1 {
		t.Fatalf("churn kills = %d, want 1 (half of 2 jobs)", got)
	}
	if logs.State != JobFinished {
		t.Errorf("low-priority job state %s, want finished", jobStateName(logs.State))
	}
	if web.State != JobRunning {
		t.Errorf("high-priority job state %s, want running", jobStateName(web.State))
	}
}

// TestEveryPromotionExportedOnce: after a mid-interval crash, the
// entries a job exports — across a dropped export, up to an export
// boundary — carry every promotion its restarted tracker recorded, each
// exactly once: the dropped interval's promotions reach the next entry
// and none from before the crash leak in.
func TestEveryPromotionExportedOnce(t *testing.T) {
	crashAt := 40 * time.Minute // exports close every 6 minutes: 36 and 42
	plan := &fault.Plan{Name: "crash-drop", Events: []fault.Event{
		{Kind: fault.MachineCrash, Machine: "m0", At: crashAt},
		{Kind: fault.TelemetryDrop, Machine: "m0", At: 50 * time.Minute, Duration: 10 * time.Minute},
	}}
	trace := telemetry.NewTrace()
	m := newMachine(t, Config{
		Mode:      ModeProactive,
		Params:    core.Params{K: 95, S: 5 * time.Minute},
		Seed:      44,
		Injector:  fault.NewInjector(plan, "m0"),
		Collector: telemetry.NewCollector(trace),
	})
	jobs := []*Job{
		addWorkload(t, m, workload.BigtableServer, 2),
		addWorkload(t, m, workload.WebFrontend, 3),
	}
	end := 2*time.Hour + 6*time.Minute
	if err := m.Run(end); err != nil {
		t.Fatal(err)
	}
	if m.Now() != end || m.lastExport != end {
		t.Fatalf("run ended at %v with the last export at %v; want both at %v", m.Now(), m.lastExport, end)
	}
	if fs := m.FaultStats(); fs.Crashes != 1 || fs.DroppedExports == 0 {
		t.Fatalf("%d crashes, %d dropped exports; want 1 and some", fs.Crashes, fs.DroppedExports)
	}
	for _, j := range jobs {
		if j.State != JobRunning {
			t.Fatalf("%s is %s, want running", j.Memcg.Name(), jobStateName(j.State))
		}
		want := telemetry.TailsAt(j.Tracker.Promotions(), telemetry.DefaultThresholds)
		if want[0] == 0 {
			t.Fatalf("%s promoted nothing after the crash; the test needs a warmer setup", j.Memcg.Name())
		}
		got := make([]uint64, len(want))
		for _, e := range trace.Entries {
			if e.Key == m.jobKey(j) && e.TimestampSec > int64(crashAt/time.Second) {
				for i, v := range e.PromoTails {
					got[i] += v
				}
			}
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s: entries since the crash carry promotion tails %v, its tracker %v", j.Memcg.Name(), got, want)
		}
	}
}

func TestTelemetryDropLeavesGap(t *testing.T) {
	plan := &fault.Plan{Name: "drop", Events: []fault.Event{
		{Kind: fault.TelemetryDrop, Machine: "m0", At: 20 * time.Minute, Duration: 15 * time.Minute},
	}}
	trace := telemetry.NewTrace()
	m := newMachine(t, Config{
		Mode:      ModeProactive,
		Seed:      47,
		Injector:  fault.NewInjector(plan, "m0"),
		Collector: telemetry.NewCollector(trace),
	})
	addWorkload(t, m, workload.WebFrontend, 6)
	if err := m.Run(time.Hour); err != nil {
		t.Fatal(err)
	}
	if m.FaultStats().DroppedExports == 0 {
		t.Fatal("no exports dropped inside the drop window")
	}
	// The export cadence is preserved: entries resume on schedule after
	// the window, leaving a detectable hole — a step longer than the
	// interval the entry states — rather than shifted times.
	var prev int64
	gap := false
	for _, e := range trace.Entries {
		if prev != 0 && float64(e.TimestampSec-prev) > e.IntervalMinutes*60 {
			gap = true
		}
		prev = e.TimestampSec
	}
	if !gap {
		t.Error("trace has no timestamp gap despite dropped exports")
	}
}

func TestHandlePressureTable(t *testing.T) {
	newJob := func(t *testing.T, m *Machine, arch *workload.Archetype, name string, pages int, seed int64) *Job {
		t.Helper()
		a := *arch
		a.PagesMin, a.PagesMax = pages, pages+1
		w, err := workload.New(workload.Config{Archetype: &a, Name: name, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		j, err := m.AddJob(w)
		if err != nil {
			t.Fatal(err)
		}
		return j
	}

	const pages = 2000
	footprint := uint64(pages) * mem.PageSize

	cases := []struct {
		name string
		mode Mode
		// dramFrac sizes DRAM as a fraction of the combined footprint of
		// three jobs (bigtable 300, web 200, logs 50 priority).
		dramFrac      float64
		wantErr       error
		wantEvicted   []string // evicted job names, in eviction order
		wantSurvivors []string
	}{
		{
			name:          "fits without action",
			mode:          ModeProactive,
			dramFrac:      1.2,
			wantSurvivors: []string{"web", "bt", "logs"},
		},
		{
			name:          "proactive evicts lowest priority only",
			mode:          ModeProactive,
			dramFrac:      0.8,
			wantEvicted:   []string{"logs"},
			wantSurvivors: []string{"web", "bt"},
		},
		{
			name:          "deep overcommit evicts in priority order",
			mode:          ModeProactive,
			dramFrac:      0.5,
			wantEvicted:   []string{"logs", "web"},
			wantSurvivors: []string{"bt"},
		},
		{
			name:          "reactive reclaims before evicting",
			mode:          ModeReactive,
			dramFrac:      0.97,
			wantSurvivors: []string{"web", "bt", "logs"},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dram := uint64(float64(3*footprint) * c.dramFrac)
			m := newMachine(t, Config{Mode: c.mode, DRAMBytes: dram, Params: core.Params{K: 98, S: time.Hour}, Seed: 48})
			jobs := map[string]*Job{
				"web":  newJob(t, m, workload.WebFrontend, "web", pages, 1),
				"bt":   newJob(t, m, workload.BigtableServer, "bt", pages, 2),
				"logs": newJob(t, m, workload.LogProcessor, "logs", pages, 3),
			}
			// Reactive reclaim needs working-set estimates (soft limits) to
			// know how much it may reclaim; a couple of scans provide them.
			if c.mode == ModeReactive {
				for _, j := range jobs {
					j.Tracker.Scan()
					j.lastWSS = uint64(float64(j.Memcg.NumPages()) * 0.5)
				}
			}

			err := m.handlePressure()
			if c.wantErr != nil {
				if !errors.Is(err, c.wantErr) {
					t.Fatalf("err = %v, want %v", err, c.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			// Accounting invariant: the machine fits afterwards.
			if m.UsedBytes() > dram {
				t.Errorf("still over capacity: used %d > dram %d", m.UsedBytes(), dram)
			}
			if m.Evictions() != len(c.wantEvicted) {
				t.Errorf("evictions = %d, want %d", m.Evictions(), len(c.wantEvicted))
			}
			for _, name := range c.wantEvicted {
				if jobs[name].State != JobEvicted {
					t.Errorf("job %s state %s, want evicted", name, jobStateName(jobs[name].State))
				}
			}
			for _, name := range c.wantSurvivors {
				if jobs[name].State != JobRunning {
					t.Errorf("job %s state %s, want running", name, jobStateName(jobs[name].State))
				}
			}
			// Evicted jobs hold no far-memory pages.
			for name, j := range jobs {
				if j.State == JobEvicted && j.Memcg.Compressed() != 0 {
					t.Errorf("evicted job %s still holds %d compressed pages", name, j.Memcg.Compressed())
				}
			}
		})
	}
}

// fixedFootprintTier is a far-memory tier whose DRAM footprint cannot be
// released — the worst case for a machine under a pressure spike.
type fixedFootprintTier struct{ bytes uint64 }

func (f fixedFootprintTier) Prime(*mem.Memcg, []mem.PageID) {}
func (f fixedFootprintTier) Store(*mem.Memcg, mem.PageID) zswap.StoreResult {
	return zswap.StoreResult{Outcome: zswap.StoreRejectedFull}
}
func (f fixedFootprintTier) Load(*mem.Memcg, mem.PageID) (zswap.LoadResult, error) {
	return zswap.LoadResult{}, nil
}
func (f fixedFootprintTier) Drop(*mem.Memcg, mem.PageID) error { return nil }
func (f fixedFootprintTier) Compact() uint64                   { return 0 }
func (f fixedFootprintTier) FootprintBytes() uint64            { return f.bytes }
func (f fixedFootprintTier) Stats() zswap.Stats                { return zswap.Stats{} }

func TestHandlePressureOOMWrapsSentinel(t *testing.T) {
	// No running job to evict and an unreleasable tier footprint above the
	// squeezed capacity: nothing can be freed, and the error must branch
	// as ErrOutOfMemory.
	plan := &fault.Plan{Name: "squeeze", Events: []fault.Event{
		{Kind: fault.PressureSpike, Machine: "m0", At: 0, Duration: time.Hour, Magnitude: 0.999},
	}}
	m := newMachine(t, Config{
		Mode:      ModeProactive,
		DRAMBytes: gib,
		Seed:      49,
		Tier:      fixedFootprintTier{bytes: 64 << 20},
		Injector:  fault.NewInjector(plan, "m0"),
	})
	if err := m.handlePressure(); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("err = %v, want ErrOutOfMemory", err)
	}
}

// compactCounter is a zswap pool that counts the Compact calls its
// machine makes.
type compactCounter struct {
	*zswap.Pool
	compacts int
}

func (c *compactCounter) Compact() uint64 {
	c.compacts++
	return c.Pool.Compact()
}

// TestTierCompactsOnScheduleAndOnCrash: the agent compacts whatever tier
// the machine runs, not only a bare zswap pool, every compactEveryScans
// scans, and once more when a crash has emptied it (§5.1).
func TestTierCompactsOnScheduleAndOnCrash(t *testing.T) {
	tier := &compactCounter{Pool: zswap.NewPool()}
	plan := &fault.Plan{Name: "crash", Events: []fault.Event{
		{Kind: fault.MachineCrash, Machine: "m0", At: 10 * time.Minute},
	}}
	m := newMachine(t, Config{
		Mode:     ModeProactive,
		Seed:     51,
		Tier:     tier,
		Injector: fault.NewInjector(plan, "m0"),
	})
	addWorkload(t, m, workload.LogProcessor, 9)
	const scans = 2 * compactEveryScans
	for i := 0; i < scans; i++ {
		if err := m.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if m.FaultStats().Crashes != 1 {
		t.Fatalf("crashes = %d, want 1", m.FaultStats().Crashes)
	}
	if want := scans/compactEveryScans + 1; tier.compacts != want {
		t.Errorf("tier compacted %d times, want %d (every %dth of %d scans plus the crash)", tier.compacts, want, compactEveryScans, scans)
	}
}

func TestJobLookupSentinels(t *testing.T) {
	m := newMachine(t, Config{Mode: ModeProactive, Seed: 50})
	j := addWorkload(t, m, workload.WebFrontend, 7)

	if err := m.RemoveJob(j); err != nil {
		t.Fatal(err)
	}
	if err := m.RemoveJob(j); !errors.Is(err, ErrJobNotRunning) {
		t.Errorf("double remove: err = %v, want ErrJobNotRunning", err)
	}
}

func TestPressureSpikeEvictsDuringRun(t *testing.T) {
	plan := &fault.Plan{Name: "spike", Events: []fault.Event{
		{Kind: fault.PressureSpike, Machine: "m0", At: 30 * time.Minute, Duration: 10 * time.Minute, Magnitude: 0.5},
	}}
	wl1, _ := workload.New(workload.Config{Archetype: workload.WebFrontend, Name: "web", Seed: 8})
	wl2, _ := workload.New(workload.Config{Archetype: workload.LogProcessor, Name: "logs", Seed: 9})
	// DRAM fits both with headroom; the spike withholding half forces the
	// low-priority job out.
	dram := uint64(wl1.Pages()+wl2.Pages()) * mem.PageSize * 12 / 10
	m := newMachine(t, Config{Mode: ModeProactive, DRAMBytes: dram, Seed: 51, Injector: fault.NewInjector(plan, "m0")})
	web, err := m.AddJob(wl1)
	if err != nil {
		t.Fatal(err)
	}
	logs, err := m.AddJob(wl2)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(time.Hour); err != nil {
		t.Fatal(err)
	}
	if m.Evictions() == 0 {
		t.Fatal("pressure spike evicted nothing")
	}
	if logs.State != JobEvicted {
		t.Errorf("low-priority job state %s, want evicted", jobStateName(logs.State))
	}
	if web.State == JobEvicted && logs.State != JobEvicted {
		t.Error("high-priority job evicted before low-priority")
	}
}
