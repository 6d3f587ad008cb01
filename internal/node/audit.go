package node

import (
	"time"

	"sdfm/internal/audit"
	"sdfm/internal/zswap"
)

// auditJobPrev snapshots one job's cumulative counters for the
// monotonicity invariant. Interval state (intervalProm, census
// histograms) is deliberately absent: it legitimately resets on crash.
type auditJobPrev struct {
	promotions  uint64
	storedPages uint64
	storedBytes uint64
	cpu         time.Duration
	compress    time.Duration
	decompress  time.Duration
	stall       time.Duration
	trips       int
}

// auditPrev snapshots the machine counters that must never run
// backwards, including across restarts (a crash drops pool content and
// per-job control state, never accounting).
type auditPrev struct {
	valid         bool
	evictions     int
	limitKills    int
	pressureRuns  int
	pressureStall time.Duration
	faults        FaultStats
	pool          zswap.Stats
	jobs          []auditJobPrev
}

// zswapPool returns the zswap pool at the bottom of the machine's tier
// stack, unwrapping any wrapper that exposes Inner() — the fault tier
// does, and so does chaos test instrumentation. It is nil when a test
// fake stands in for the pool.
func (m *Machine) zswapPool() *zswap.Pool {
	t := m.pool
	for {
		w, ok := t.(interface{ Inner() zswap.FarMemory })
		if !ok {
			break
		}
		t = w.Inner()
	}
	zp, _ := t.(*zswap.Pool)
	return zp
}

// Audit runs the invariant catalogue against the machine's current
// state and returns every violation found. It is read-only with respect
// to simulation state (only the monotonicity baseline advances), so an
// audited run is byte-identical to an unaudited one. deep additionally
// runs the full-recount checks (memcg index recount, arena recount) at
// full-walk cost.
func (m *Machine) Audit(deep bool) []audit.Violation {
	var vs []audit.Violation
	name := m.cfg.Name

	var jobPages, jobBytes uint64
	tripSum := 0
	for _, j := range m.jobs {
		vs = append(vs, audit.CheckMemcg(name, j.Memcg)...)
		if deep {
			vs = append(vs, audit.CheckMemcgDeep(name, j.Memcg)...)
		}
		jobPages += uint64(j.Memcg.Compressed())
		jobBytes += j.Memcg.CompressedBytes()
		tripSum += j.breakerTrips
		vs = append(vs, m.auditBreaker(j)...)
	}
	if tripSum != m.breakerTrips {
		vs = append(vs, audit.V(name, "", audit.InvBreakerLegal,
			"jobs account %d breaker trips, machine counted %d", tripSum, m.breakerTrips))
	}
	if zp := m.zswapPool(); zp != nil {
		vs = append(vs, audit.CheckPool(name, zp, jobPages, jobBytes)...)
		if deep {
			vs = append(vs, audit.CheckPoolDeep(name, zp)...)
		}
	}
	vs = append(vs, m.auditWatchdog()...)
	vs = append(vs, m.auditMonotonic()...)
	return vs
}

// auditBreaker checks one job's circuit-breaker state against the state
// machine's legal envelope (see breaker.go).
func (m *Machine) auditBreaker(j *Job) []audit.Violation {
	var vs []audit.Violation
	name, job := m.cfg.Name, j.Memcg.Name()
	cfg := &m.cfg.Breaker
	if !cfg.Enabled {
		if j.breakerConsec != 0 || j.backoffSteps != 0 || j.breakerOpen || j.breakerTrips != 0 {
			vs = append(vs, audit.V(name, job, audit.InvBreakerLegal,
				"breaker state (consec=%d backoff=%d open=%v trips=%d) on a machine with the breaker disabled",
				j.breakerConsec, j.backoffSteps, j.breakerOpen, j.breakerTrips))
		}
		return vs
	}
	if j.breakerConsec < 0 || j.breakerConsec >= cfg.TripViolations {
		vs = append(vs, audit.V(name, job, audit.InvBreakerLegal,
			"consecutive violations %d outside [0, %d)", j.breakerConsec, cfg.TripViolations))
	}
	if j.backoffSteps < 0 || j.backoffSteps > maxBackoffSteps {
		vs = append(vs, audit.V(name, job, audit.InvBreakerLegal,
			"backoff steps %d outside [0, %d]", j.backoffSteps, maxBackoffSteps))
	}
	if j.breakerOpen && j.breakerReopenAt <= 0 {
		vs = append(vs, audit.V(name, job, audit.InvBreakerLegal,
			"breaker open without a reopen deadline"))
	}
	if j.breakerTrips < 0 {
		vs = append(vs, audit.V(name, job, audit.InvBreakerLegal,
			"negative trip count %d", j.breakerTrips))
	}
	return vs
}

// auditWatchdog reconciles the stall/restart counters. Every wedge bumps
// stalledSteps; every watchdog recovery bumps watchdogRestarts; a
// machine crash can clear a wedge without a watchdog restart. Hence:
//
//	watchdogRestarts + wedged <= stalledSteps <= watchdogRestarts + crashes + wedged
func (m *Machine) auditWatchdog() []audit.Violation {
	wedged := 0
	if m.daemonWedged {
		wedged = 1
	}
	lo := m.watchdogRestarts + wedged
	hi := m.watchdogRestarts + m.crashes + wedged
	if m.stalledSteps < lo || m.stalledSteps > hi {
		return []audit.Violation{audit.V(m.cfg.Name, "", audit.InvWatchdogLegal,
			"%d stalled steps outside [%d, %d] (restarts=%d crashes=%d wedged=%v)",
			m.stalledSteps, lo, hi, m.watchdogRestarts, m.crashes, m.daemonWedged)}
	}
	return nil
}

// auditMonotonic verifies that cumulative counters never run backwards
// between audits — the telemetry-monotonicity invariant that crash
// recovery (which resets interval state but not accounting) must
// preserve. The previous snapshot advances in place; job slots are
// stable (jobs are never removed from m.jobs), so index i always names
// the same job.
func (m *Machine) auditMonotonic() []audit.Violation {
	var vs []audit.Violation
	p := &m.auditprev
	mono := func(job, counter string, prev, cur uint64) {
		if cur < prev {
			vs = append(vs, audit.V(m.cfg.Name, job, audit.InvMonotonic,
				"%s ran backwards: %d -> %d", counter, prev, cur))
		}
	}
	fs := m.FaultStats()
	ps := m.pool.Stats()
	if p.valid {
		mono("", "evictions", uint64(p.evictions), uint64(m.evictions))
		mono("", "limitKills", uint64(p.limitKills), uint64(m.limitKills))
		mono("", "pressureRuns", uint64(p.pressureRuns), uint64(m.pressureRuns))
		mono("", "pressureStall", uint64(p.pressureStall), uint64(m.pressureStall))
		mono("", "crashes", uint64(p.faults.Crashes), uint64(fs.Crashes))
		mono("", "stalledSteps", uint64(p.faults.StalledSteps), uint64(fs.StalledSteps))
		mono("", "watchdogRestarts", uint64(p.faults.WatchdogRestarts), uint64(fs.WatchdogRestarts))
		mono("", "droppedExports", uint64(p.faults.DroppedExports), uint64(fs.DroppedExports))
		mono("", "churnKills", uint64(p.faults.ChurnKills), uint64(fs.ChurnKills))
		mono("", "breakerTrips", uint64(p.faults.BreakerTrips), uint64(fs.BreakerTrips))
		mono("", "backoffEvents", uint64(p.faults.BackoffEvents), uint64(fs.BackoffEvents))
		mono("", "injectedErrors", p.faults.InjectedErrors, fs.InjectedErrors)
		mono("", "slowedStores", p.faults.SlowedStores, fs.SlowedStores)
		mono("", "slowedLoads", p.faults.SlowedLoads, fs.SlowedLoads)
		mono("", "pool.storedPages", p.pool.StoredPages, ps.StoredPages)
		mono("", "pool.zeroPages", p.pool.ZeroPages, ps.ZeroPages)
		mono("", "pool.rejectedPages", p.pool.RejectedPages, ps.RejectedPages)
		mono("", "pool.fullRejects", p.pool.FullRejects, ps.FullRejects)
		mono("", "pool.loadedPages", p.pool.LoadedPages, ps.LoadedPages)
		mono("", "pool.compressCPU", uint64(p.pool.CompressCPU), uint64(ps.CompressCPU))
		mono("", "pool.decompressCPU", uint64(p.pool.DecompressCPU), uint64(ps.DecompressCPU))
		mono("", "pool.storedBytes", p.pool.StoredBytes, ps.StoredBytes)
		mono("", "pool.payloadBytes", p.pool.PayloadBytes, ps.PayloadBytes)
		for i := range p.jobs {
			j, jp := m.jobs[i], &p.jobs[i]
			job := j.Memcg.Name()
			mono(job, "promotions", jp.promotions, j.Promotions)
			mono(job, "storedPages", jp.storedPages, j.StoredPages)
			mono(job, "storedBytes", jp.storedBytes, j.StoredBytes)
			mono(job, "cpuUsed", uint64(jp.cpu), uint64(j.CPUUsed))
			mono(job, "compressCPU", uint64(jp.compress), uint64(j.CompressCPU))
			mono(job, "decompressCPU", uint64(jp.decompress), uint64(j.DecompressCPU))
			mono(job, "stallTime", uint64(jp.stall), uint64(j.StallTime))
			mono(job, "breakerTrips", uint64(jp.trips), uint64(j.breakerTrips))
		}
	}

	p.valid = true
	p.evictions = m.evictions
	p.limitKills = m.limitKills
	p.pressureRuns = m.pressureRuns
	p.pressureStall = m.pressureStall
	p.faults = fs
	p.pool = ps
	if cap(p.jobs) < len(m.jobs) {
		grown := make([]auditJobPrev, len(m.jobs))
		copy(grown, p.jobs)
		p.jobs = grown
	}
	p.jobs = p.jobs[:len(m.jobs)]
	for i, j := range m.jobs {
		p.jobs[i] = auditJobPrev{
			promotions:  j.Promotions,
			storedPages: j.StoredPages,
			storedBytes: j.StoredBytes,
			cpu:         j.CPUUsed,
			compress:    j.CompressCPU,
			decompress:  j.DecompressCPU,
			stall:       j.StallTime,
			trips:       j.breakerTrips,
		}
	}
	return vs
}
