// Package node assembles one machine of the far-memory system: per-job
// memcgs driven by synthetic workloads, the kstaled scanner and kreclaimd
// reclaimer, a machine-global zswap pool, and the node agent (the paper's
// Borglet role) that runs the §4.3 threshold controller per job, enforces
// working-set soft limits, triggers zsmalloc compaction, exports
// telemetry, and evicts low-priority jobs when decompression bursts
// exhaust DRAM (§4.2, §5.2).
//
// The same machine can run in three modes for the paper's comparisons:
// proactive far memory (the paper's system), reactive far memory (stock
// zswap triggered only by memory pressure, the §3.2 baseline), and
// disabled (the control group in A/B experiments).
package node

import (
	"fmt"
	"time"

	"sdfm/internal/audit"
	"sdfm/internal/core"
	"sdfm/internal/fault"
	"sdfm/internal/histogram"
	"sdfm/internal/kreclaimd"
	"sdfm/internal/kstaled"
	"sdfm/internal/mem"
	"sdfm/internal/obs"
	"sdfm/internal/telemetry"
	"sdfm/internal/workload"
	"sdfm/internal/zswap"
)

// Mode selects the machine's far-memory policy.
type Mode int

const (
	// ModeProactive is the paper's system: background cold-page reclaim
	// under the promotion-rate SLO.
	ModeProactive Mode = iota
	// ModeReactive is stock zswap: compression happens only on direct
	// reclaim when the machine runs out of memory (§3.2 baseline).
	ModeReactive
	// ModeDisabled runs no far memory at all (A/B control group).
	ModeDisabled
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeProactive:
		return "proactive"
	case ModeReactive:
		return "reactive"
	case ModeDisabled:
		return "disabled"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// JobState tracks a job's lifecycle on the machine.
type JobState int

const (
	// JobRunning is a live job.
	JobRunning JobState = iota
	// JobEvicted was killed to relieve memory pressure and would be
	// rescheduled elsewhere by the cluster scheduler.
	JobEvicted
	// JobFinished exited normally (job churn); its far-memory pages were
	// discarded without promotion cost.
	JobFinished
)

// Job is one job instance on the machine.
type Job struct {
	Workload   *workload.Workload
	Memcg      *mem.Memcg
	Tracker    *kstaled.Tracker
	Controller *core.Controller
	Started    time.Duration
	State      JobState
	Priority   int

	// Accounting.
	CPUUsed       time.Duration // application CPU
	CompressCPU   time.Duration // cycles spent compressing (incl. rejects)
	DecompressCPU time.Duration // cycles spent decompressing on faults
	StallTime     time.Duration // synchronous stalls (reactive direct reclaim)
	Promotions    uint64        // actual promotion faults
	StoredPages   uint64        // pages moved to far memory (cumulative)
	StoredBytes   uint64        // compressed payload bytes (cumulative)

	// Promotion deltas. The tracker's counts are cumulative; prevPromo is
	// them as of the control loop's previous step and exportPromo as of
	// the last export that reached the collector (all zero: no base yet,
	// or the tracker restarted). promoDelta is the reused histogram
	// promotionsSince fills.
	prevPromo   [histogram.NumBuckets]uint64
	exportPromo [histogram.NumBuckets]uint64
	promoDelta  *histogram.Histogram

	// Per-interval samples while running (for CDFs).
	rateSamples    []float64
	latencySamples []float64

	lastWSS      uint64
	lastColdMin  uint64
	intervalProm uint64 // promotion faults during the current interval

	// Circuit-breaker state (see breaker.go).
	breakerConsec   int           // consecutive SLO-violating intervals
	backoffSteps    int           // current threshold-backoff level
	breakerOpen     bool          // zswap disabled for this job
	breakerReopenAt time.Duration // when an open breaker half-opens
	breakerTrips    int           // times the breaker opened
}

// CompressionRatio returns the job's cumulative byte-weighted compression
// ratio, or 0 if nothing was stored.
func (j *Job) CompressionRatio() float64 {
	if j.StoredBytes == 0 {
		return 0
	}
	return float64(j.StoredPages*mem.PageSize) / float64(j.StoredBytes)
}

// CPUOverheadCompress returns compression cycles as a fraction of job CPU.
func (j *Job) CPUOverheadCompress() float64 {
	if j.CPUUsed == 0 {
		return 0
	}
	return float64(j.CompressCPU) / float64(j.CPUUsed)
}

// CPUOverheadDecompress returns decompression cycles as a fraction of job
// CPU.
func (j *Job) CPUOverheadDecompress() float64 {
	if j.CPUUsed == 0 {
		return 0
	}
	return float64(j.DecompressCPU) / float64(j.CPUUsed)
}

// RateSamples returns the normalized promotion rate (fraction of WSS per
// minute) of each scan interval that ended past the job's warm-up S with
// a working set; their mean is the job's term in core.FleetRate.
func (j *Job) RateSamples() []float64 { return j.rateSamples }

// LatencySamples returns observed promotion latencies in microseconds.
func (j *Job) LatencySamples() []float64 { return j.latencySamples }

// Config configures a machine.
type Config struct {
	Name    string
	Cluster string
	// DRAMBytes is the machine's near-memory capacity.
	DRAMBytes uint64
	Mode      Mode
	Params    core.Params
	SLO       core.SLO
	// Tier overrides the far-memory tier (default: a zswap pool).
	Tier zswap.FarMemory
	// Collector, when set, receives the telemetry exports (every third
	// scan: 6 simulated minutes).
	Collector *telemetry.Collector
	// CollectSamples retains per-interval rate and latency samples.
	CollectSamples bool
	// Seed namespaces per-job memcg content seeds.
	Seed int64
	// Injector, when set, drives deterministic fault injection: machine
	// crashes, daemon stalls, telemetry drops, pressure spikes, churn
	// bursts, and (via a fault.Tier wrapped around Tier) compressor
	// errors and slowdowns. Nil injects nothing and leaves behaviour
	// byte-identical to a machine built without one.
	Injector *fault.Injector
	// Breaker configures the per-job promotion-SLO circuit breaker;
	// disabled by default.
	Breaker BreakerConfig
	// Audit opts the machine into the invariant auditor: the catalogue in
	// internal/audit runs against live state at the end of each step (at
	// the configured cadence) and a violation fails the step with an
	// error wrapping audit.ErrViolation. Disabled by default; when
	// disabled the cost is one branch per step.
	Audit audit.Config
	// Obs, when set, attaches the machine to the observability layer:
	// metrics for every daemon plus phase spans on the machine's tracer.
	// Observation-only — simulation behaviour (and the golden fingerprint)
	// is byte-identical with or without it. Nil disables instrumentation
	// at a cost of one branch per step.
	Obs *obs.Observer
}

// compactEveryScans is the agent-triggered compaction cadence (§5.1): the
// tier's Compact runs every that many scans.
const compactEveryScans = 10

// Machine is one simulated production machine.
type Machine struct {
	cfg       Config
	pool      zswap.FarMemory
	faultTier *fault.Tier // non-nil when an injector wraps the tier
	inj       *fault.Injector
	reclaimer *kreclaimd.Reclaimer
	jobs      []*Job
	now       time.Duration
	scans     uint64

	evictions     int
	limitKills    int
	lastExport    time.Duration
	pressureRuns  int
	pressureStall time.Duration

	// Fault and degradation accounting.
	crashes          int
	stalledSteps     int  // steps whose kstaled scans were wedged
	watchdogRestarts int  // daemon restarts by the agent's watchdog
	daemonWedged     bool // stall carried into the current step
	droppedExports   int  // telemetry exports suppressed by fault windows
	churnKills       int  // jobs finished early by churn bursts
	breakerTrips     int  // breaker opens across all jobs
	backoffEvents    int  // breaker backoff escalations across all jobs

	// dropIDs is the reusable compressed-set buffer for releaseFarMemory.
	dropIDs []mem.PageID

	// Invariant-audit state (see audit.go).
	auditDeepEvery uint64
	auditprev      auditPrev

	// Observability (see obs.go); nil when Config.Obs is nil.
	obs *machineObs
	// kstaledMx is the machine-wide scanner metrics, shared by the
	// trackers AddJob and crash restarts build.
	kstaledMx *kstaled.Metrics
}

// NewMachine builds a machine.
func NewMachine(cfg Config) (*Machine, error) {
	if cfg.DRAMBytes == 0 {
		return nil, fmt.Errorf("node: machine %q with zero DRAM", cfg.Name)
	}
	if cfg.SLO == (core.SLO{}) {
		cfg.SLO = core.DefaultSLO
	}
	if err := cfg.SLO.Validate(); err != nil {
		return nil, err
	}
	if cfg.Params == (core.Params{}) {
		cfg.Params = core.DefaultParams
	}
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}
	if cfg.Breaker.Enabled {
		cfg.Breaker.fillDefaults()
	}
	tier := cfg.Tier
	if tier == nil {
		tier = zswap.NewPool()
	}
	m := &Machine{
		cfg:  cfg,
		pool: tier,
		inj:  cfg.Injector,
	}
	if cfg.Audit.DeepEverySteps > 0 {
		m.auditDeepEvery = uint64(cfg.Audit.DeepEverySteps)
	}
	// A time-aware tier learns the machine clock. Only test tiers (the
	// chaos and cluster-engine tests' instrumented tiers) implement it.
	if tn, ok := tier.(interface{ SetNow(func() time.Duration) }); ok {
		tn.SetNow(func() time.Duration { return m.now })
	}
	if cfg.Injector != nil {
		// Compressor faults are injected between the control plane and
		// the tier, so every store/load path (proactive reclaim, direct
		// reclaim, promotion faults) sees them.
		m.faultTier = fault.WrapTier(tier, cfg.Injector, func() time.Duration { return m.now })
		m.pool = m.faultTier
	}
	m.reclaimer = kreclaimd.New(m.pool)
	m.attachObs(cfg.Obs)
	return m, nil
}

// Name returns the machine name.
func (m *Machine) Name() string { return m.cfg.Name }

// Now returns the machine's current simulated time.
func (m *Machine) Now() time.Duration { return m.now }

// Jobs returns all jobs ever placed on the machine (including evicted).
func (m *Machine) Jobs() []*Job { return m.jobs }

// Evictions returns how many jobs have been evicted for memory pressure.
func (m *Machine) Evictions() int { return m.evictions }

// LimitKills returns how many jobs were killed for exceeding their memcg
// limit (distinct from machine-pressure evictions).
func (m *Machine) LimitKills() int { return m.limitKills }

// PressureEvents returns how many direct-reclaim episodes occurred
// (reactive mode) and their cumulative synchronous stall time.
func (m *Machine) PressureEvents() (int, time.Duration) {
	return m.pressureRuns, m.pressureStall
}

// Tier returns the machine's far-memory tier.
func (m *Machine) Tier() zswap.FarMemory { return m.pool }

// AddJob places a workload on the machine starting at the machine's
// current time.
func (m *Machine) AddJob(w *workload.Workload) (*Job, error) {
	ctrl, err := core.NewController(core.ControllerConfig{
		SLO:      m.cfg.SLO,
		Params:   m.cfg.Params,
		JobStart: m.now,
	})
	if err != nil {
		return nil, err
	}
	seedBase := uint64(m.cfg.Seed)*0x9E3779B97F4A7C15 + uint64(len(m.jobs))*0xBF58476D1CE4E5B9 + 1
	memcg := mem.NewMemcg(w.MemcgConfig(seedBase))
	if f := w.Archetype().MemLimitFactor; f > 0 {
		memcg.LimitBytes = uint64(float64(w.Pages()) * mem.PageSize * f)
	}
	j := &Job{
		Workload:   w,
		Memcg:      memcg,
		Tracker:    kstaled.NewTracker(memcg, m.kstaledMx),
		Controller: ctrl,
		Started:    m.now,
		Priority:   w.Archetype().Priority,
		promoDelta: histogram.New(kstaled.DefaultScanPeriod),
	}
	m.jobs = append(m.jobs, j)
	return j, nil
}

// SetParams deploys new control-plane parameters to every job (a
// production config push).
func (m *Machine) SetParams(p core.Params) error {
	if err := p.Validate(); err != nil {
		return err
	}
	m.cfg.Params = p
	for _, j := range m.jobs {
		if j.State == JobRunning {
			if err := j.Controller.SetParams(p); err != nil {
				return err
			}
		}
	}
	return nil
}

// Params returns the machine's current control-plane parameters.
func (m *Machine) Params() core.Params { return m.cfg.Params }

// ResidentBytes is the near-memory consumed by running jobs' resident
// pages.
func (m *Machine) ResidentBytes() uint64 {
	var sum uint64
	for _, j := range m.jobs {
		if j.State == JobRunning {
			sum += j.Memcg.ResidentBytes()
		}
	}
	return sum
}

// UsedBytes is total near-memory in use: resident pages plus the far-
// memory tier's own footprint (compressed pool DRAM).
func (m *Machine) UsedBytes() uint64 {
	return m.ResidentBytes() + m.pool.FootprintBytes()
}

// ColdPagesAtMin returns the fleet-definition cold page count: pages idle
// at least the minimum threshold (including those already in far memory).
func (m *Machine) ColdPagesAtMin() uint64 {
	var sum uint64
	for _, j := range m.jobs {
		if j.State == JobRunning {
			sum += j.Tracker.Census().TailSum(1)
		}
	}
	return sum
}

// CompressedPages returns pages currently stored in far memory.
func (m *Machine) CompressedPages() uint64 {
	var sum uint64
	for _, j := range m.jobs {
		if j.State == JobRunning {
			sum += uint64(j.Memcg.Compressed())
		}
	}
	return sum
}

// Coverage is compressed pages over cold pages at the minimum threshold:
// the Figure 5/6 metric.
func (m *Machine) Coverage() float64 {
	cold := m.ColdPagesAtMin()
	if cold == 0 {
		return 0
	}
	return float64(m.CompressedPages()) / float64(cold)
}

// ColdFraction is cold pages over total pages: the Figure 1/2 metric.
func (m *Machine) ColdFraction() float64 {
	var total uint64
	for _, j := range m.jobs {
		if j.State == JobRunning {
			total += uint64(j.Memcg.NumPages())
		}
	}
	if total == 0 {
		return 0
	}
	return float64(m.ColdPagesAtMin()) / float64(total)
}

// Step advances the machine by one scan period: workload accesses,
// kstaled scan, agent control (threshold + reclaim), compaction,
// telemetry export, and memory-pressure handling. Injected faults are
// applied at the boundaries where their production counterparts strike:
// crashes and churn before the interval's work, daemon stalls at the
// scan, pressure spikes at the capacity check, drops at export.
func (m *Machine) Step() error {
	m.now += kstaled.DefaultScanPeriod
	m.scans++
	intervalMinutes := kstaled.DefaultScanPeriod.Minutes()

	// Instrumentation snapshots the cumulative CPU counters so obsEndStep
	// can size this step's phase spans from their deltas. promoHist stays
	// nil when obs is off (Observe on a nil histogram is a no-op).
	var pre cpuTotals
	var promoHist *obs.Histogram
	if m.obs != nil {
		pre = m.cpuTotals()
		promoHist = m.obs.promoLatencyUS
	}

	if m.inj.CrashDue(m.now) {
		if err := m.crash(); err != nil {
			return err
		}
	}
	if frac, ok := m.inj.ChurnBurstDue(m.now); ok {
		if err := m.churnBurst(frac); err != nil {
			return err
		}
	}

	// 1. Application allocation growth, memcg limits, then accesses;
	// faults on compressed pages promote.
	for _, j := range m.jobs {
		if j.State != JobRunning {
			continue
		}
		if n := j.Workload.GrowthDue(m.now); n > 0 {
			j.Memcg.Grow(n)
			j.Workload.AddPages(n, m.now)
		}
		if j.Memcg.LimitBytes > 0 && j.Memcg.UsageBytes() > j.Memcg.LimitBytes {
			// The job blew through its cgroup limit. WSC applications
			// prefer failing fast and restarting elsewhere over burning
			// kernel cycles staving off preemption (§5.1).
			if err := m.evict(j); err != nil {
				return err
			}
			m.limitKills++
			m.evictions-- // limit kills are not pressure evictions
			continue
		}
		var faultErr error
		// Tick emits a page's accesses back to back. After the first, the
		// page is resident with its accessed bit set, and nothing between
		// two callbacks of one Tick clears the bit or compresses the page
		// (scan and reclaim run after the tick), so a repeated read changes
		// nothing and returns at once. A write still goes through Touch:
		// it dirties the page, re-seeds its content and clears the
		// incompressible mark.
		last := ^mem.PageID(0) // no page yet: a job this ID fits has 16 TiB
		j.Workload.Tick(m.now, func(id mem.PageID, write bool) {
			if faultErr != nil {
				return
			}
			if id == last && !write {
				return
			}
			if j.Memcg.Flags(id).Has(mem.FlagCompressed) {
				j.Tracker.RecordPromotionFault(j.Memcg.Age(id))
				lr, err := m.pool.Load(j.Memcg, id)
				if err != nil {
					faultErr = fmt.Errorf("node: promotion fault on %s page %d: %v: %w",
						j.Memcg.Name(), id, err, ErrPromotionFailed)
					return
				}
				j.DecompressCPU += lr.CPUTime
				j.Promotions++
				j.intervalProm++
				promoHist.Observe(float64(lr.Latency.Nanoseconds()) / 1e3)
				if m.cfg.CollectSamples {
					j.latencySamples = append(j.latencySamples, float64(lr.Latency.Nanoseconds())/1e3)
				}
			}
			j.Memcg.Touch(id, write)
			last = id
		})
		if faultErr != nil {
			return faultErr
		}
		j.CPUUsed += j.Workload.CPUUsage(m.now, kstaled.DefaultScanPeriod)
	}

	// 2. kstaled scans — unless the daemon is wedged by a stall fault, in
	// which case the agent's watchdog notices the missed scan at the end
	// of the step and restarts it (the daemon may wedge again while the
	// underlying fault persists).
	scanWedged := false
	if m.inj.StallActive(m.now) && !m.daemonWedged {
		scanWedged = true
		m.daemonWedged = true
		m.stalledSteps++
	} else if m.daemonWedged {
		// The watchdog restarted the daemon after the previous step's
		// missed scan; it runs again this step.
		m.daemonWedged = false
		m.watchdogRestarts++
	}
	if !scanWedged {
		for _, j := range m.jobs {
			if j.State == JobRunning {
				j.Tracker.Scan()
			}
		}
	}

	// 3. Node agent control loop per job.
	for _, j := range m.jobs {
		if j.State != JobRunning {
			continue
		}
		m.control(j, intervalMinutes)
	}

	// 4. Periodic compaction (agent-triggered, §5.1).
	ranCompact := m.scans%compactEveryScans == 0
	if ranCompact {
		m.pool.Compact()
	}

	// 5. Memory pressure.
	if err := m.handlePressure(); err != nil {
		return err
	}

	// 6. Telemetry export. A drop window suppresses the export but keeps
	// the cadence, leaving a gap in the trace for the model to account.
	ranExport := false
	if m.cfg.Collector != nil && m.now-m.lastExport >= telemetry.DefaultAggregation {
		if m.inj.TelemetryDropped(m.now) {
			m.droppedExports++
		} else if err := m.export(); err != nil {
			return err
		} else {
			ranExport = true
		}
		m.lastExport = m.now
	}

	// 7. Invariant audit (opt-in). Read-only against simulation state, so
	// behaviour with auditing on is byte-identical to auditing off.
	ranAudit, deepAudit := false, false
	if m.cfg.Audit.Enabled {
		ranAudit = true
		deepAudit = m.auditDeepEvery > 0 && m.scans%m.auditDeepEvery == 0
		if vs := m.Audit(deepAudit); len(vs) > 0 {
			// Flush instruments before failing so the exported metrics and
			// trace describe the step that tripped the auditor.
			if m.obs != nil {
				m.obsEndStep(pre, ranCompact, ranExport, ranAudit, deepAudit, len(vs))
			}
			return &audit.Error{Violations: vs}
		}
	}
	if m.obs != nil {
		m.obsEndStep(pre, ranCompact, ranExport, ranAudit, deepAudit, 0)
	}
	return nil
}

// control is one job's turn in the node agent's control loop: observe the
// interval's promotions, pick the threshold, reclaim what is colder. It
// allocates nothing unless a page is stored or samples are collected.
func (m *Machine) control(j *Job, intervalMinutes float64) {
	census := j.Tracker.Census()
	wss := core.WorkingSetPages(census, m.cfg.SLO)
	j.lastWSS = wss
	j.lastColdMin = census.TailSum(1)

	best := core.BestThreshold(j.promotionsSince(&j.prevPromo), wss, intervalMinutes, m.cfg.SLO)
	j.Controller.Observe(m.now, best)

	// Record the realized rate of each interval past warm-up S.
	if m.cfg.CollectSamples && wss > 0 && j.Controller.Enabled(m.now) {
		rate := float64(j.intervalProm) / intervalMinutes / float64(wss)
		j.rateSamples = append(j.rateSamples, rate)
	}
	// The circuit breaker judges the job on its realized rate before
	// the interval counter resets.
	if m.cfg.Breaker.Enabled {
		m.updateBreaker(j, intervalMinutes)
	}
	j.intervalProm = 0

	// zswap is off for jobs at their memcg limit: compressing to stave
	// off the limit wastes cycles the scheduler will reclaim anyway by
	// killing the job (§5.1). An open breaker likewise disables zswap
	// for the job until its cooldown expires.
	if m.cfg.Mode == ModeProactive && j.Controller.Enabled(m.now) && !j.Memcg.AtLimit() && !j.breakerOpen {
		th := j.Controller.Threshold()
		if p := j.breakerPenalty(); p > 0 {
			th += p
			if th > histogram.MaxBucket {
				th = histogram.MaxBucket
			}
		}
		res := m.reclaimer.ReclaimCold(j.Memcg, th)
		j.CompressCPU += res.CPUTime
		j.StoredPages += uint64(res.Stored)
		j.StoredBytes += res.StoredBytes
	}
}

// promotionsSince returns the promotions the tracker recorded since *base
// (its cumulative counts at some earlier point; all zero means since the
// tracker was created), in the job's reused delta histogram, and moves
// *base to now. A bucket below its base panics: only crash replaces the
// tracker, and it zeroes every base with it.
func (j *Job) promotionsSince(base *[histogram.NumBuckets]uint64) *histogram.Histogram {
	cumulative := j.Tracker.Promotions().Counts()
	delta := cumulative
	for b, prev := range base {
		if prev > delta[b] {
			panic(fmt.Sprintf("node: %s promotion bucket %d went backwards (%d after %d)",
				j.Memcg.Name(), b, delta[b], prev))
		}
		delta[b] -= prev
	}
	*base = cumulative
	j.promoDelta.SetCounts(delta)
	return j.promoDelta
}

// capacityBytes is the DRAM available to jobs right now: the machine's
// nominal capacity minus whatever a pressure-spike fault is withholding.
func (m *Machine) capacityBytes() uint64 {
	capb := m.cfg.DRAMBytes
	if extra := m.inj.PressureExtraBytes(m.now, m.cfg.DRAMBytes); extra > 0 {
		if extra >= capb {
			return 0
		}
		capb -= extra
	}
	return capb
}

// crash simulates a machine restart: the compressed pool's content is
// lost, and every running job restarts in place — resident pages refault
// cold (age 0), far-memory pages are gone without promotion cost, the
// controller loses its history, and the S-second warmup applies anew.
// Cumulative job accounting (CPU, promotions, stored bytes) survives, as
// production monitoring counters would.
func (m *Machine) crash() error {
	m.crashes++
	for _, j := range m.jobs {
		if j.State != JobRunning {
			continue
		}
		if err := m.releaseFarMemory(j); err != nil {
			return err
		}
		j.Memcg.ResetAges()
		j.Tracker = kstaled.NewTracker(j.Memcg, m.kstaledMx)
		j.Controller.Reset(m.now)
		j.prevPromo = [histogram.NumBuckets]uint64{}
		j.exportPromo = [histogram.NumBuckets]uint64{}
		j.intervalProm = 0
		j.lastWSS = 0
		j.lastColdMin = 0
		j.breakerConsec = 0
		j.backoffSteps = 0
		j.breakerOpen = false
		// A closed breaker must carry no stale reopen deadline; the next
		// trip sets a fresh one (state-machine legality, see audit.go).
		j.breakerReopenAt = 0
	}
	// The dropped pool's arena is empty now; compaction releases its
	// physical zspages, completing the restart.
	m.pool.Compact()
	m.daemonWedged = false
	return nil
}

// churnBurst finishes frac of the running jobs early (normal churn, not
// eviction), lowest priority first.
func (m *Machine) churnBurst(frac float64) error {
	running := m.jobsByPriority()
	n := int(frac * float64(len(running)))
	for i := 0; i < n; i++ {
		if err := m.RemoveJob(running[i]); err != nil {
			return err
		}
		m.churnKills++
	}
	return nil
}

// FaultStats aggregates a machine's fault-injection and degradation
// counters.
type FaultStats struct {
	Crashes          int    `json:"crashes"`
	StalledSteps     int    `json:"stalledSteps"`
	WatchdogRestarts int    `json:"watchdogRestarts"`
	DroppedExports   int    `json:"droppedExports"`
	ChurnKills       int    `json:"churnKills"`
	BreakerTrips     int    `json:"breakerTrips"`
	BackoffEvents    int    `json:"backoffEvents"`
	InjectedErrors   uint64 `json:"injectedErrors"` // stores failed by compressor-error windows
	SlowedStores     uint64 `json:"slowedStores"`
	SlowedLoads      uint64 `json:"slowedLoads"`
}

// FaultStats returns the machine's fault accounting. All zeros on a
// machine without an injector.
func (m *Machine) FaultStats() FaultStats {
	fs := FaultStats{
		Crashes:          m.crashes,
		StalledSteps:     m.stalledSteps,
		WatchdogRestarts: m.watchdogRestarts,
		DroppedExports:   m.droppedExports,
		ChurnKills:       m.churnKills,
		BreakerTrips:     m.breakerTrips,
		BackoffEvents:    m.backoffEvents,
	}
	if m.faultTier != nil {
		ts := m.faultTier.TierStats()
		fs.InjectedErrors = ts.InjectedErrors
		fs.SlowedStores = ts.SlowedStores
		fs.SlowedLoads = ts.SlowedLoads
	}
	return fs
}

// handlePressure resolves near-memory overcommit. In reactive mode it runs
// direct reclaim (synchronous compression charged as stall time) on the
// lowest-priority jobs, never pushing a job below its working-set soft
// limit. If pressure persists — or in proactive mode, where the paper
// prefers failing fast — the lowest-priority job is evicted.
func (m *Machine) handlePressure() error {
	capacity := m.capacityBytes()
	if m.UsedBytes() <= capacity {
		return nil
	}
	if m.cfg.Mode == ModeReactive {
		m.pressureRuns++
		// Compressed pages land in the pool's own DRAM footprint, so each
		// reclaimed page frees less than a page of near memory. Re-measure
		// the residual need each pass and keep reclaiming until the machine
		// fits or no job makes progress.
		for {
			need := uint64(0)
			if used := m.UsedBytes(); used > capacity {
				need = used - capacity
			}
			if need == 0 {
				return nil
			}
			progress := false
			for _, j := range m.jobsByPriority() {
				if need == 0 {
					break
				}
				// Soft limit: do not reclaim below the working set (§5.1).
				resident := j.Memcg.ResidentBytes()
				softLimit := j.lastWSS * mem.PageSize
				if resident <= softLimit {
					continue
				}
				budget := resident - softLimit
				if budget > need {
					budget = need
				}
				res := m.reclaimer.ReclaimUnderPressure(j.Memcg, budget)
				j.StallTime += res.CPUTime // direct reclaim stalls the allocating thread
				j.CompressCPU += res.CPUTime
				j.StoredPages += uint64(res.Stored)
				j.StoredBytes += res.StoredBytes
				m.pressureStall += res.CPUTime
				if res.Stored > 0 {
					progress = true
				}
				freed := uint64(res.Stored) * mem.PageSize
				if freed >= need {
					need = 0
				} else {
					need -= freed
				}
			}
			if !progress {
				break
			}
		}
	}
	// Evict lowest-priority jobs until the machine fits.
	for m.UsedBytes() > capacity {
		victim := m.lowestPriorityRunning()
		if victim == nil {
			return fmt.Errorf("machine %s: %w", m.cfg.Name, ErrOutOfMemory)
		}
		if err := m.evict(victim); err != nil {
			return err
		}
	}
	return nil
}

func (m *Machine) jobsByPriority() []*Job {
	out := make([]*Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		if j.State == JobRunning {
			out = append(out, j)
		}
	}
	// Insertion sort by ascending priority (few jobs per machine).
	for i := 1; i < len(out); i++ {
		for k := i; k > 0 && out[k].Priority < out[k-1].Priority; k-- {
			out[k], out[k-1] = out[k-1], out[k]
		}
	}
	return out
}

func (m *Machine) lowestPriorityRunning() *Job {
	js := m.jobsByPriority()
	if len(js) == 0 {
		return nil
	}
	return js[0]
}

// RemoveJob retires a job that finished normally: its far-memory pages
// are discarded (no decompression cost) and its memory is released. The
// slot becomes free for the scheduler to reuse.
func (m *Machine) RemoveJob(j *Job) error {
	if j.State != JobRunning {
		return fmt.Errorf("removing job %s in state %s: %w", j.Memcg.Name(), jobStateName(j.State), ErrJobNotRunning)
	}
	if err := m.releaseFarMemory(j); err != nil {
		return err
	}
	j.State = JobFinished
	return nil
}

// evict kills a job, releasing its far-memory pages without decompression.
func (m *Machine) evict(j *Job) error {
	if err := m.releaseFarMemory(j); err != nil {
		return err
	}
	j.State = JobEvicted
	m.evictions++
	return nil
}

// releaseFarMemory discards a departing job's far-memory pages, visiting
// only the compressed set (ascending page order) rather than the whole
// memcg.
func (m *Machine) releaseFarMemory(j *Job) error {
	m.dropIDs = j.Memcg.AppendCompressed(m.dropIDs[:0])
	for _, id := range m.dropIDs {
		if err := m.pool.Drop(j.Memcg, id); err != nil {
			return err
		}
	}
	return nil
}

func (m *Machine) jobKey(j *Job) telemetry.JobKey {
	return telemetry.JobKey{Cluster: m.cfg.Cluster, Machine: m.cfg.Name, Job: j.Memcg.Name()}
}

// export records each running job's interval: the promotions since its
// last export, its census and working set. The entry states the time since
// the previous export: exports land on the scan grid, every third 120 s
// scan, so an interval is 6 minutes, not the nominal 5.
func (m *Machine) export() error {
	minutes := (m.now - m.lastExport).Minutes()
	for _, j := range m.jobs {
		if j.State != JobRunning {
			continue
		}
		err := m.cfg.Collector.Record(
			m.jobKey(j), m.now, minutes,
			j.promotionsSince(&j.exportPromo), j.Tracker.Census(), j.lastWSS,
		)
		if err != nil {
			return err
		}
	}
	return nil
}

// Run advances the machine until the given simulated time.
func (m *Machine) Run(until time.Duration) error {
	for m.now+kstaled.DefaultScanPeriod <= until {
		if err := m.Step(); err != nil {
			return err
		}
	}
	return nil
}
