package model

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"sdfm/internal/core"
	"sdfm/internal/fleet"
	"sdfm/internal/telemetry"
)

func equivTrace(t *testing.T) *telemetry.Trace {
	t.Helper()
	tr, err := fleet.Generate(fleet.Config{
		Clusters: 2, MachinesPerCluster: 3, JobsPerMachine: 4,
		Duration: 8 * time.Hour, Seed: 42, ChurnFraction: 0.4,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// longTrace holds two jobs of 26 h of 5-minute entries each, so every job
// series outruns the controller's core.PoolSpan and the replay evicts from
// its pool.
func longTrace(t *testing.T) *telemetry.Trace {
	t.Helper()
	tr, err := fleet.Generate(fleet.Config{
		Clusters: 1, MachinesPerCluster: 1, JobsPerMachine: 2,
		Duration: 26 * time.Hour, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	series := jobSeries(tr)
	for _, es := range series {
		span := time.Duration(es[len(es)-1].TimestampSec-es[0].TimestampSec) * time.Second
		if span <= core.PoolSpan {
			t.Fatalf("long trace holds a job series spanning %v; want every series longer than %v", span, core.PoolSpan)
		}
	}
	if len(series) != 2 {
		t.Fatalf("long trace holds %d jobs, want 2", len(series))
	}
	return tr
}

// addDuplicateTimestampJob appends a job that reports three different
// entries per timestamp, out of order: enough of them that an unstable
// sort would reorder the duplicates, which the replay — order-sensitive
// through the controller's history — would then show.
func addDuplicateTimestampJob(t *testing.T, tr *telemetry.Trace) {
	t.Helper()
	n := len(tr.Thresholds)
	key := telemetry.JobKey{Cluster: "c", Machine: "m", Job: "dup"}
	var entries []telemetry.Entry
	for i := 0; i < 90; i++ {
		e := telemetry.Entry{
			Key: key, TimestampSec: int64(300 * (1 + i/3)), IntervalMinutes: 5,
			WSSPages: 2000, TotalPages: 10000,
			ColdTails: make([]uint64, n), PromoTails: make([]uint64, n),
		}
		for th := 0; th < n; th++ {
			e.ColdTails[th] = uint64(6000 - 100*th - 7*i)
			if th < (i*5)%n {
				e.PromoTails[th] = 500
			}
		}
		entries = append(entries, e)
	}
	rand.New(rand.NewSource(5)).Shuffle(len(entries), func(i, j int) { entries[i], entries[j] = entries[j], entries[i] })
	for _, e := range entries {
		if err := tr.Append(e); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCompiledReplayEquivalence locks the tentpole invariant: the compiled
// replay must return results bit-identical to the reference per-evaluation
// path for the same trace and configuration — including per-job means,
// the fleet percentile and gap counts.
func TestCompiledReplayEquivalence(t *testing.T) {
	tr := equivTrace(t)
	addDuplicateTimestampJob(t, tr)
	long := longTrace(t)
	cases := []struct {
		tr  *telemetry.Trace
		cfg Config
	}{
		{tr, Config{Params: core.DefaultParams, SLO: core.DefaultSLO}},
		{tr, Config{Params: core.Params{K: 50, S: 0}, SLO: core.DefaultSLO}},
		{tr, Config{Params: core.Params{K: 99.9, S: 2 * time.Hour}, SLO: core.DefaultSLO}},
		// A different SLO exercises the lazy best-threshold re-derivation.
		{tr, Config{Params: core.DefaultParams, SLO: core.SLO{TargetRatePerMin: 0.01, MinThreshold: core.DefaultSLO.MinThreshold}}},
		// Job series longer than the pool's span evict from it.
		{long, Config{Params: core.DefaultParams, SLO: core.DefaultSLO}},
	}
	// One compile per trace, reused row to row like a tuning session.
	compiled := map[*telemetry.Trace]*CompiledTrace{tr: Compile(tr), long: Compile(long)}
	for i, c := range cases {
		tr, cfg, ct := c.tr, c.cfg, compiled[c.tr]
		want, err := RunBaseline(tr, cfg)
		if err != nil {
			t.Fatalf("config %d: baseline: %v", i, err)
		}
		got, err := ct.Run(cfg)
		if err != nil {
			t.Fatalf("config %d: compiled: %v", i, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("config %d: compiled replay diverges from baseline\nbaseline: %v\ncompiled: %v", i, want, got)
		}
		// The Run wrapper (compile internally) must agree too.
		viaWrapper, err := Run(tr, cfg)
		if err != nil {
			t.Fatalf("config %d: wrapper: %v", i, err)
		}
		if !reflect.DeepEqual(want, viaWrapper) {
			t.Errorf("config %d: Run wrapper diverges from baseline", i)
		}
	}
}

// TestCompiledReplayReuse evaluates many configurations against one
// CompiledTrace — the tuning-session pattern — and checks each against the
// reference path, including SLO flips that invalidate the cached
// best-threshold columns.
func TestCompiledReplayReuse(t *testing.T) {
	tr := equivTrace(t)
	ct := Compile(tr)
	slos := []core.SLO{
		core.DefaultSLO,
		{TargetRatePerMin: 0.0005, MinThreshold: core.DefaultSLO.MinThreshold},
		core.DefaultSLO, // flip back: cache must re-derive correctly
	}
	for _, slo := range slos {
		for _, k := range []float64{60, 95, 99.5} {
			cfg := Config{Params: core.Params{K: k, S: 10 * time.Minute}, SLO: slo}
			want, err := RunBaseline(tr, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := ct.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("K=%v slo=%v: compiled replay diverges", k, slo.TargetRatePerMin)
			}
		}
	}
}

// TestRunDeterministicAcrossWorkers asserts the replay result is identical
// whatever the parallelism — job results land at their job's index, never
// in completion order.
func TestRunDeterministicAcrossWorkers(t *testing.T) {
	tr := equivTrace(t)
	ct := Compile(tr)
	cfg := Config{Params: core.DefaultParams, SLO: core.DefaultSLO}
	all := runtime.GOMAXPROCS(0)
	useProcs(t, 1)
	want, err := ct.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{4, all} {
		useProcs(t, workers)
		got, err := ct.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("Workers=%d: FleetResult differs from Workers=1", workers)
		}
	}
}

// useProcs sets GOMAXPROCS, which is the replay's worker count, to n
// until the test ends.
func useProcs(t *testing.T, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// variableEntry is one record of a hand-built single-job series whose
// aggregation interval may change mid-series.
type variableEntry struct {
	tsSec       int64
	intervalMin float64
}

func variableTrace(t *testing.T, series []variableEntry) *telemetry.Trace {
	t.Helper()
	tr := telemetry.NewTrace()
	n := len(tr.Thresholds)
	for _, v := range series {
		e := telemetry.Entry{
			Key:             telemetry.JobKey{Cluster: "c", Machine: "m", Job: "j"},
			TimestampSec:    v.tsSec,
			IntervalMinutes: v.intervalMin,
			WSSPages:        100,
			TotalPages:      1000,
			ColdTails:       make([]uint64, n),
			PromoTails:      make([]uint64, n),
		}
		for i := range e.ColdTails {
			e.ColdTails[i] = uint64(500 - 5*i)
		}
		if err := tr.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	return tr
}

// TestGapAccountingVariableIntervals pins down gap inference when the
// reporting interval varies across a series: missing intervals are counted
// in units of the cadence in effect *before* the hole, and a cadence
// change itself is charged conservatively when the jump exceeds 1.5x the
// previous interval.
func TestGapAccountingVariableIntervals(t *testing.T) {
	cases := []struct {
		name     string
		series   []variableEntry
		wantGaps int
	}{
		{
			name: "uniform 5min, continuous",
			series: []variableEntry{
				{300, 5}, {600, 5}, {900, 5}, {1200, 5},
			},
			wantGaps: 0,
		},
		{
			name: "uniform 5min, two missing",
			series: []variableEntry{
				{300, 5}, {600, 5}, {1500, 5}, {1800, 5},
			},
			wantGaps: 2,
		},
		{
			name: "uniform 10min, one missing",
			series: []variableEntry{
				{600, 10}, {1200, 10}, {2400, 10},
			},
			wantGaps: 1,
		},
		{
			// A hole after the cadence slowed to 10 minutes is measured in
			// 10-minute units, not the original 5-minute ones.
			name: "hole measured at local cadence",
			series: []variableEntry{
				{300, 5}, {600, 5}, {900, 5},
				{1500, 10}, {2100, 10}, // 5->10min transition: 1 inferred gap
				{3900, 10}, // 1800s jump at 10min cadence: 2 gaps
				{4500, 10},
			},
			wantGaps: 3,
		},
		{
			// Cadence doubling with no dropped data still infers one gap:
			// from the old cadence's viewpoint one report went missing. The
			// conservative charge keeps Completeness an underestimate.
			name: "cadence change alone",
			series: []variableEntry{
				{300, 5}, {600, 5}, {1200, 10}, {1800, 10},
			},
			wantGaps: 1,
		},
		{
			// Cadence speeding up (10 -> 5 min) never looks like a gap.
			name: "cadence speedup",
			series: []variableEntry{
				{600, 10}, {1200, 10}, {1500, 5}, {1800, 5},
			},
			wantGaps: 0,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tr := variableTrace(t, c.series)
			for name, run := range map[string]func(*telemetry.Trace, Config) (FleetResult, error){
				"compiled": Run,
				"baseline": RunBaseline,
			} {
				fr, err := run(tr, Config{Params: core.DefaultParams, SLO: core.DefaultSLO})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if fr.GapIntervals != c.wantGaps {
					t.Errorf("%s: GapIntervals = %d, want %d", name, fr.GapIntervals, c.wantGaps)
				}
				observed := len(c.series)
				want := float64(observed) / float64(observed+c.wantGaps)
				if diff := fr.Completeness - want; diff > 1e-12 || diff < -1e-12 {
					t.Errorf("%s: Completeness = %v, want %v", name, fr.Completeness, want)
				}
			}
		})
	}
}

// TestCompiledTraceAccessors covers the small introspection surface.
func TestCompiledTraceAccessors(t *testing.T) {
	tr := variableTrace(t, []variableEntry{{300, 5}, {600, 5}, {900, 5}})
	ct := Compile(tr)
	if ct.Jobs() != 1 {
		t.Errorf("Jobs() = %d, want 1", ct.Jobs())
	}
	if ct.Intervals() != 3 {
		t.Errorf("Intervals() = %d, want 3", ct.Intervals())
	}
}

// TestCompiledRunRejectsInvalidConfig mirrors Run's validation behavior.
func TestCompiledRunRejectsInvalidConfig(t *testing.T) {
	ct := Compile(variableTrace(t, []variableEntry{{300, 5}}))
	if _, err := ct.Run(Config{Params: core.Params{K: 150}, SLO: core.DefaultSLO}); err == nil {
		t.Error("invalid K accepted")
	}
	if _, err := ct.Run(Config{Params: core.DefaultParams, SLO: core.SLO{}}); err == nil {
		t.Error("invalid SLO accepted")
	}
}
