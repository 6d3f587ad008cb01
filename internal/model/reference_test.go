package model

import (
	"sort"
	"testing"
	"time"

	"sdfm/internal/core"
	"sdfm/internal/mem"
	"sdfm/internal/telemetry"
)

// The references the compiled replay engine is held to: the original
// per-evaluation replays, which drive a fresh core.Controller per job over
// telemetry entries. They re-group and re-sort the trace and re-derive
// best-threshold indices every evaluation, so they are slow and obviously
// faithful to §4.3 — and live here, not in the shipped package. The
// equivalence tests require CompiledTrace.Run and CompiledTrace.Timeline,
// which reuse one controller per worker across jobs, to match them bit
// for bit.

// jobSeries groups entries by job, each series sorted by timestamp with
// same-timestamp entries kept in arrival order, as StreamCompiler does.
func jobSeries(t *telemetry.Trace) map[telemetry.JobKey][]telemetry.Entry {
	out := make(map[telemetry.JobKey][]telemetry.Entry)
	for _, e := range t.Entries {
		out[e.Key] = append(out[e.Key], e)
	}
	for _, s := range out {
		sort.SliceStable(s, func(i, j int) bool { return s[i].TimestampSec < s[j].TimestampSec })
	}
	return out
}

// TestJobSeriesSorted checks the reference's own grouping: per-job series
// in timestamp order, same-timestamp entries in arrival order.
func TestJobSeriesSorted(t *testing.T) {
	tr := telemetry.NewTrace()
	k1 := telemetry.JobKey{Cluster: "c1", Machine: "m1", Job: "web"}
	k2 := telemetry.JobKey{Cluster: "c1", Machine: "m2", Job: "batch"}
	n := len(tr.Thresholds)
	for i, in := range []struct {
		key telemetry.JobKey
		ts  int64
	}{{k1, 600}, {k2, 300}, {k1, 300}, {k1, 600}} {
		if err := tr.Append(telemetry.Entry{
			Key: in.key, TimestampSec: in.ts, IntervalMinutes: 5,
			WSSPages:  uint64(i), // arrival order, to tell duplicates apart
			ColdTails: make([]uint64, n), PromoTails: make([]uint64, n),
		}); err != nil {
			t.Fatal(err)
		}
	}
	series := jobSeries(tr)
	if len(series) != 2 {
		t.Fatalf("got %d series", len(series))
	}
	s1 := series[k1]
	if len(s1) != 3 || s1[0].TimestampSec != 300 || s1[1].WSSPages != 0 || s1[2].WSSPages != 3 {
		t.Errorf("k1 series not stably sorted: %v", s1)
	}
	jobs := tr.Jobs()
	if len(jobs) != 2 || jobs[0].String() >= jobs[1].String() {
		t.Errorf("Jobs() = %v, want 2 keys sorted", jobs)
	}
}

// RunBaseline is the reference for Run.
func RunBaseline(trace *telemetry.Trace, cfg Config) (FleetResult, error) {
	if err := cfg.Params.Validate(); err != nil {
		return FleetResult{}, err
	}
	if err := cfg.SLO.Validate(); err != nil {
		return FleetResult{}, err
	}
	series := jobSeries(trace)
	keys := trace.Jobs()
	results := make([]JobResult, len(keys))
	for i, key := range keys {
		jr, err := replayJob(trace, key, series[key], cfg)
		if err != nil {
			return FleetResult{}, err
		}
		results[i] = jr
	}
	return reduce(results), nil
}

// replayJob runs the controller over one job's interval series.
func replayJob(trace *telemetry.Trace, key telemetry.JobKey, entries []telemetry.Entry, cfg Config) (JobResult, error) {
	if len(entries) == 0 {
		return JobResult{Key: key}, nil
	}
	ctrl, err := core.NewController(core.ControllerConfig{
		Params:   cfg.Params,
		JobStart: time.Duration(entries[0].TimestampSec) * time.Second,
	})
	if err != nil {
		return JobResult{}, err
	}
	lastIdx := len(trace.Thresholds) - 1

	jr := JobResult{Key: key}
	var sumCold, sumColdMin, sumTotal, sumRate float64
	var prevTS int64 = -1
	var prevInterval float64

	for _, e := range entries {
		jr.Intervals++
		now := time.Duration(e.TimestampSec) * time.Second
		if prevTS >= 0 && prevInterval > 0 {
			step := float64(e.TimestampSec-prevTS) / 60
			if step > 1.5*prevInterval {
				// The job went dark: count the missing intervals instead of
				// letting the means pretend the series was continuous.
				jr.GapIntervals += int(step/prevInterval+0.5) - 1
			}
		}
		prevTS, prevInterval = e.TimestampSec, e.IntervalMinutes

		sumColdMin += float64(e.ColdTails[0])
		sumTotal += float64(e.TotalPages)

		if ctrl.Enabled(now) {
			idx := ctrl.Threshold()
			if idx > lastIdx {
				idx = lastIdx // no history yet: most conservative threshold
			}
			promos := float64(e.PromoTails[idx]) / e.IntervalMinutes
			rate := 0.0
			if e.WSSPages > 0 {
				rate = promos / float64(e.WSSPages)
			}
			jr.Enabled++
			sumCold += compressibleColdPages(e, idx)
			sumRate += rate
			if rate > cfg.SLO.TargetRatePerMin {
				jr.Violations++
			}
		}
		ctrl.Observe(now, bestIndex(e, trace, cfg.SLO))
	}

	n := float64(jr.Intervals)
	jr.MeanColdPages = sumCold / n
	jr.MeanColdAtMinPages = sumColdMin / n
	jr.MeanTotalPages = sumTotal / n
	if jr.Enabled > 0 {
		jr.MeanRate = sumRate / float64(jr.Enabled)
	}
	return jr, nil
}

// compressibleColdPages is what an interval operating at threshold idx
// holds in far memory: only compressible cold pages end up in zswap, the
// incompressible remainder stays resident (§5.1, §6.3), and a page is in
// or out whole.
func compressibleColdPages(e telemetry.Entry, idx int) float64 {
	frac := e.CompressibleFrac
	if frac == 0 {
		frac = 1
	}
	return float64(uint64(float64(e.ColdTails[idx]) * frac))
}

// bestIndex is core.BestThreshold in trace's predefined-threshold-index
// space: the smallest threshold index, among those at or above the SLO's
// floor bucket on the trace's scan-period grid, whose promotion rate met
// the SLO over the interval.
func bestIndex(e telemetry.Entry, trace *telemetry.Trace, slo core.SLO) int {
	limit := slo.TargetRatePerMin * float64(e.WSSPages)
	floor := slo.MinBucket(time.Duration(trace.ScanPeriodSeconds) * time.Second)
	for i := range e.PromoTails {
		if trace.Thresholds[i] < floor {
			continue
		}
		rate := float64(e.PromoTails[i]) / e.IntervalMinutes
		if rate <= limit {
			return i
		}
	}
	return len(e.PromoTails) - 1
}

// referenceTimeline is the reference for Timeline: one controller per
// job, SetParams at each phase change (by phase position, so two phases
// may share a name), per-job contributions summed in job order.
func referenceTimeline(trace *telemetry.Trace, phases []Phase, cfg Config) ([]TimelinePoint, error) {
	series := jobSeries(trace)
	agg := make(map[time.Duration]*TimelinePoint)
	for _, key := range trace.Jobs() {
		if err := replayTimelineJob(trace, series[key], phases, cfg, agg); err != nil {
			return nil, err
		}
	}
	out := make([]TimelinePoint, 0, len(agg))
	for _, p := range agg {
		p.ColdBytes *= mem.PageSize
		p.ColdBytesAtMin *= mem.PageSize
		if p.ColdBytesAtMin > 0 {
			p.Coverage = p.ColdBytes / p.ColdBytesAtMin
		}
		out = append(out, *p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Time < out[j].Time })
	return out, nil
}

// referencePhaseAt is the position of the last phase whose Start has
// passed, 0 before any has.
func referencePhaseAt(phases []Phase, t time.Duration) int {
	cur := 0
	for i, ph := range phases {
		if ph.Start <= t {
			cur = i
		}
	}
	return cur
}

// replayTimelineJob adds one job's per-interval cold pages into agg.
func replayTimelineJob(trace *telemetry.Trace, entries []telemetry.Entry, phases []Phase, cfg Config, agg map[time.Duration]*TimelinePoint) error {
	ctrl, err := core.NewController(core.ControllerConfig{
		Params:   phases[0].Params,
		JobStart: time.Duration(entries[0].TimestampSec) * time.Second,
	})
	if err != nil {
		return err
	}
	lastIdx := len(trace.Thresholds) - 1
	cur := 0
	for _, e := range entries {
		now := time.Duration(e.TimestampSec) * time.Second
		if ph := referencePhaseAt(phases, now); ph != cur {
			cur = ph
			if err := ctrl.SetParams(phases[ph].Params); err != nil {
				return err
			}
		}
		p, ok := agg[now]
		if !ok {
			p = &TimelinePoint{Time: now, Phase: phases[cur].Name}
			agg[now] = p
		}
		if phases[cur].Enabled && ctrl.Enabled(now) {
			idx := ctrl.Threshold()
			if idx > lastIdx {
				idx = lastIdx
			}
			p.ColdBytes += compressibleColdPages(e, idx)
		}
		p.ColdBytesAtMin += float64(e.ColdTails[0])
		ctrl.Observe(now, bestIndex(e, trace, cfg.SLO))
	}
	return nil
}
