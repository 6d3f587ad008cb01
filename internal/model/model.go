// Package model implements the fast far memory model (§5.3): an offline,
// embarrassingly parallel replay of fleet telemetry traces under arbitrary
// control-plane parameters.
//
// For each job, the model re-runs the §4.3 threshold controller over the
// job's interval series — every interval carries cold-size and promotion
// tail sums for all predefined thresholds, so the controller's behaviour
// under any (K, S) can be evaluated without touching production. Job
// replays are independent and run on a worker pool (the paper uses a
// MapReduce-style pipeline for the same reason); the reduce step yields
// the two quantities the autotuner optimizes: fleet cold-memory bytes
// (objective) and the 98th-percentile normalized promotion rate
// (constraint).
package model

import (
	"fmt"

	"sdfm/internal/core"
	"sdfm/internal/mem"
	"sdfm/internal/telemetry"
)

// Config configures a model run.
type Config struct {
	Params core.Params
	SLO    core.SLO
}

// JobResult is the replay outcome for one job: counts and means over its
// intervals. Its one rate figure is MeanRate, the value core.FleetRate
// takes across jobs for the fleet's P98Rate (the tuner's constraint); no
// per-interval rate is kept.
type JobResult struct {
	Key       telemetry.JobKey
	Intervals int // total intervals replayed
	Enabled   int // intervals with zswap active (past warmup)

	// MeanColdPages is the mean number of pages at or past the operating
	// threshold while enabled: the pages the system would hold in far
	// memory.
	MeanColdPages float64
	// MeanColdAtMinPages is the mean cold size under the minimum threshold
	// (the coverage denominator).
	MeanColdAtMinPages float64
	// MeanTotalPages is the mean page population.
	MeanTotalPages float64
	// MeanRate is the time-averaged normalized promotion rate
	// (fraction of WSS per minute) while enabled.
	MeanRate float64
	// Violations counts enabled intervals whose realized rate exceeded
	// the SLO target.
	Violations int
	// GapIntervals counts intervals the trace should contain but does not:
	// timestamp jumps larger than 1.5× the reporting interval (telemetry
	// drops, agent restarts). Gap intervals are excluded from every mean —
	// the replay accounts for them here instead of silently averaging
	// across the hole as if the job had reported.
	GapIntervals int
}

// FleetResult is the reduce step over all jobs.
type FleetResult struct {
	Jobs []JobResult

	// ColdBytes is the fleet total of mean far-memory bytes.
	ColdBytes float64
	// ColdBytesAtMin is the fleet total cold memory under the minimum
	// threshold (the upper bound on what far memory could hold).
	ColdBytesAtMin float64
	// Coverage is ColdBytes / ColdBytesAtMin: Figure 5's metric.
	Coverage float64
	// P98Rate is the SLO statistic, core.FleetRate of the enabled jobs'
	// MeanRates: the autotuner's constraint (§5.3) and Fig. 7's figure.
	P98Rate float64
	// ViolationFrac is the fraction of enabled (job, interval) samples
	// violating the SLO.
	ViolationFrac float64
	// EnabledIntervals is the total enabled sample count.
	EnabledIntervals int
	// GapIntervals is the fleet total of inferred missing intervals.
	GapIntervals int
	// Completeness is observed / (observed + missing) intervals: 1.0 for a
	// gap-free trace. A low value warns that coverage and rate estimates
	// rest on partial data.
	Completeness float64
}

// Run replays the trace under cfg. It is the compatibility wrapper over
// the compiled-replay pipeline: the trace is compiled internally and
// replayed once. Callers evaluating many configurations over the same
// trace (tuning sessions, figure sweeps) should Compile once and call
// CompiledTrace.Run per candidate instead, which skips the per-evaluation
// grouping/sorting/column-building work entirely.
func Run(trace *telemetry.Trace, cfg Config) (FleetResult, error) {
	return Compile(trace).Run(cfg)
}

func reduce(jobs []JobResult) FleetResult {
	r := FleetResult{Jobs: jobs}
	var meanRates []float64
	observed, violations := 0, 0
	for _, j := range jobs {
		observed += j.Intervals
		r.GapIntervals += j.GapIntervals
		if j.Intervals == 0 {
			continue
		}
		// Every job's cold ceiling counts toward the fleet denominator,
		// even when zswap never enabled for it.
		r.ColdBytes += j.MeanColdPages * mem.PageSize
		r.ColdBytesAtMin += j.MeanColdAtMinPages * mem.PageSize
		if j.Enabled == 0 {
			continue
		}
		r.EnabledIntervals += j.Enabled
		violations += j.Violations
		meanRates = append(meanRates, j.MeanRate)
	}
	if observed+r.GapIntervals > 0 {
		r.Completeness = float64(observed) / float64(observed+r.GapIntervals)
	}
	if r.ColdBytesAtMin > 0 {
		r.Coverage = r.ColdBytes / r.ColdBytesAtMin
	}
	r.P98Rate = core.FleetRate(meanRates)
	if r.EnabledIntervals > 0 {
		r.ViolationFrac = float64(violations) / float64(r.EnabledIntervals)
	}
	return r
}

// String renders the fleet result compactly.
func (r FleetResult) String() string {
	s := fmt.Sprintf("coverage=%.3f coldGiB=%.2f p98rate=%.5f/min violations=%.3f jobs=%d",
		r.Coverage, r.ColdBytes/(1<<30), r.P98Rate, r.ViolationFrac, len(r.Jobs))
	if r.GapIntervals > 0 {
		s += fmt.Sprintf(" gaps=%d completeness=%.3f", r.GapIntervals, r.Completeness)
	}
	return s
}
