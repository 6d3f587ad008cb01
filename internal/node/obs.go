package node

import (
	"time"

	"sdfm/internal/kreclaimd"
	"sdfm/internal/kstaled"
	"sdfm/internal/obs"
	"sdfm/internal/zswap"
)

// promoLatencyBuckets are the promotion-latency histogram bounds in
// microseconds, spanning memset-speed zero-page restores through
// worst-case decompression.
var promoLatencyBuckets = []float64{1, 2, 5, 10, 25, 50, 100, 250, 1000}

// machineObs holds the machine's push instruments and trace lanes: the
// events no simulation state keeps. It is built once in NewMachine (nil
// when observability is off) and only touched by the machine's own step
// loop, which keeps instrumented parallel cluster runs byte-identical to
// serial ones. All updates are observation-only: nothing here feeds back
// into simulation decisions.
type machineObs struct {
	trace *obs.Tracer

	steps           *obs.Counter
	auditRuns       *obs.Counter
	auditDeepRuns   *obs.Counter
	auditViolations *obs.Counter

	promoLatencyUS *obs.Histogram

	laneWorkload int
	laneScan     int
	laneReclaim  int
	laneCompact  int
	lanePressure int
	laneExport   int
	laneAudit    int
}

// newMachineObs registers the machine's instruments on o: push counters
// for events, and read-at-export series for the totals and occupancy the
// machine already keeps. Returns nil (instrumentation off, one branch per
// step) when o is nil.
func newMachineObs(m *Machine, o *obs.Observer) *machineObs {
	if o == nil {
		return nil
	}
	count := func(name, help string, v *int) {
		o.CounterFunc(name, help, func() float64 { return float64(*v) })
	}
	gauge := func(name, help string, v func() uint64) {
		o.GaugeFunc(name, help, func() float64 { return float64(v()) })
	}
	mo := &machineObs{trace: o.Tracer()}
	mo.steps = o.Counter("sdfm_node_steps_total", "Completed machine steps.")
	o.CounterFunc("sdfm_node_promotions_total", "Promotion faults served.", func() float64 {
		var n uint64
		for _, j := range m.jobs {
			n += j.Promotions
		}
		return float64(n)
	})
	count("sdfm_node_evictions_total", "Jobs evicted for memory pressure.", &m.evictions)
	count("sdfm_node_limit_kills_total", "Jobs killed at their memcg limit.", &m.limitKills)
	count("sdfm_node_pressure_runs_total", "Direct-reclaim episodes.", &m.pressureRuns)
	count("sdfm_node_crashes_total", "Machine crash-restarts.", &m.crashes)
	count("sdfm_node_watchdog_restarts_total", "Daemon restarts by the watchdog.", &m.watchdogRestarts)
	count("sdfm_node_churn_kills_total", "Jobs finished early by churn bursts.", &m.churnKills)
	count("sdfm_node_breaker_trips_total", "Circuit-breaker opens across jobs.", &m.breakerTrips)
	count("sdfm_node_dropped_exports_total", "Telemetry exports lost to fault windows.", &m.droppedExports)
	mo.auditRuns = o.Counter("sdfm_node_audit_runs_total", "Invariant-audit passes.")
	mo.auditDeepRuns = o.Counter("sdfm_node_audit_deep_runs_total", "Deep (full-recount) audit passes.")
	mo.auditViolations = o.Counter("sdfm_node_audit_violations_total", "Invariant violations found.")

	gauge("sdfm_node_resident_bytes", "Near memory held by running jobs.", m.ResidentBytes)
	gauge("sdfm_node_used_bytes", "Total near memory in use (resident + tier footprint).", m.UsedBytes)
	gauge("sdfm_node_compressed_pages", "Pages currently in far memory.", m.CompressedPages)
	gauge("sdfm_node_pool_footprint_bytes", "DRAM consumed by the far-memory tier itself.", m.pool.FootprintBytes)
	gauge("sdfm_node_jobs_running", "Jobs currently running.", func() uint64 {
		var n uint64
		for _, j := range m.jobs {
			if j.State == JobRunning {
				n++
			}
		}
		return n
	})

	mo.promoLatencyUS = o.Histogram("sdfm_node_promotion_latency_us",
		"End-to-end promotion-fault latency in microseconds.", promoLatencyBuckets)

	mo.laneWorkload = o.Lane("workload")
	mo.laneScan = o.Lane("scan")
	mo.laneReclaim = o.Lane("reclaim")
	mo.laneCompact = o.Lane("compact")
	mo.lanePressure = o.Lane("pressure")
	mo.laneExport = o.Lane("export")
	mo.laneAudit = o.Lane("audit")
	return mo
}

// registerFarTier exports the zswap pool's cumulative counters, labelled
// tier="zswap", read from its Stats and DroppedPages at export.
func registerFarTier(o *obs.Observer, t *zswap.Pool) {
	l := obs.Label{Key: "tier", Value: "zswap"}
	count := func(name, help string, v func(zswap.Stats) uint64) {
		o.CounterFunc(name, help, func() float64 { return float64(v(t.Stats())) }, l)
	}
	count("sdfm_far_stored_pages_total", "Pages accepted into the far-memory tier.",
		func(s zswap.Stats) uint64 { return s.StoredPages })
	count("sdfm_far_zero_pages_total", "Pages stored via the same-filled optimization.",
		func(s zswap.Stats) uint64 { return s.ZeroPages })
	count("sdfm_far_rejected_pages_total", "Pages refused: compressed payload above the cutoff.",
		func(s zswap.Stats) uint64 { return s.RejectedPages })
	count("sdfm_far_full_rejects_total", "Pages refused: tier at capacity.",
		func(s zswap.Stats) uint64 { return s.FullRejects })
	count("sdfm_far_loaded_pages_total", "Pages promoted back on faults.",
		func(s zswap.Stats) uint64 { return s.LoadedPages })
	o.CounterFunc("sdfm_far_dropped_pages_total", "Pages discarded without promotion (job exit).",
		func() float64 { return float64(t.DroppedPages()) }, l)
	count("sdfm_far_payload_bytes_total", "Compressed bytes written to the tier.",
		func(s zswap.Stats) uint64 { return s.PayloadBytes })
}

// cpuTotals sums the per-job modelled CPU counters whose deltas bound each
// step phase's span duration. O(jobs); only called when instrumented.
type cpuTotals struct {
	workload     time.Duration // application CPU + decompression on faults
	scan         time.Duration // kstaled scanner CPU
	compress     time.Duration // compression (proactive reclaim + pressure)
	stall        time.Duration // synchronous pressure stalls
	pressureRuns int           // direct-reclaim episodes, which open a pressure span
}

func (m *Machine) cpuTotals() cpuTotals {
	var t cpuTotals
	for _, j := range m.jobs {
		t.workload += j.CPUUsed + j.DecompressCPU
		t.scan += j.Tracker.CPUTime()
		t.compress += j.CompressCPU
	}
	t.stall, t.pressureRuns = m.pressureStall, m.pressureRuns
	return t
}

// obsEndStep emits the step's phase spans (laid out sequentially over the
// scan period in simulated time, each sized by its modelled CPU cost) and
// counts the step and its audit. ranCompact/ranExport/ranAudit gate the
// zero-cost bookkeeping phases' spans.
func (m *Machine) obsEndStep(pre cpuTotals, ranCompact, ranExport, ranAudit, deepAudit bool, violations int) {
	mo := m.obs
	post := m.cpuTotals()
	// Trackers reset their cumulative CPU on crash; clamp deltas at zero
	// so a crash step cannot produce negative span durations.
	dur := func(a, b time.Duration) time.Duration {
		if b < a {
			return 0
		}
		return b - a
	}
	wl := dur(pre.workload, post.workload)
	scan := dur(pre.scan, post.scan)
	// The pressure phase charges both CompressCPU and StallTime; the
	// reclaim lane gets the proactive share (compress delta minus the
	// pressure stall delta, clamped).
	stall := dur(pre.stall, post.stall)
	reclaim := dur(pre.compress, post.compress)
	if reclaim >= stall {
		reclaim -= stall
	} else {
		reclaim = 0
	}

	t := m.now - kstaled.DefaultScanPeriod
	emit := func(lane int, name string, d time.Duration) {
		mo.trace.Emit(lane, name, t, d)
		t += d
	}
	emit(mo.laneWorkload, "workload", wl)
	emit(mo.laneScan, "scan", scan)
	emit(mo.laneReclaim, "reclaim", reclaim)
	if ranCompact {
		emit(mo.laneCompact, "compact", 0)
	}
	if stall > 0 || post.pressureRuns != pre.pressureRuns {
		emit(mo.lanePressure, "pressure", stall)
	}
	if ranExport {
		emit(mo.laneExport, "export", 0)
	}
	if ranAudit {
		name := "audit"
		if deepAudit {
			name = "audit-deep"
		}
		emit(mo.laneAudit, name, 0)
	}

	mo.steps.Inc()
	if ranAudit {
		mo.auditRuns.Inc()
		if deepAudit {
			mo.auditDeepRuns.Inc()
		}
		mo.auditViolations.AddInt(violations)
	}
}

// attachObs finishes observability wiring after the tier stack is built.
func (m *Machine) attachObs(o *obs.Observer) {
	m.obs = newMachineObs(m, o)
	if m.obs == nil {
		return
	}
	if zp := m.zswapPool(); zp != nil {
		registerFarTier(o, zp)
	}
	m.kstaledMx = kstaled.NewMetrics(o)
	m.reclaimer.SetMetrics(kreclaimd.NewMetrics(o))
}
