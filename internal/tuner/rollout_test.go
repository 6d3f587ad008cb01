package tuner

import (
	"errors"
	"testing"
	"time"

	"sdfm/internal/core"
	"sdfm/internal/fleet"
	"sdfm/internal/model"
	"sdfm/internal/telemetry"
)

func stageResult(p98 float64, enabled int) model.FleetResult {
	return model.FleetResult{P98Rate: p98, Coverage: 0.5, EnabledIntervals: enabled}
}

func TestStagedRolloutAccepts(t *testing.T) {
	slo := core.DefaultSLO
	var seen []string
	obj := func(p core.Params, st RolloutStage, idx int) (model.FleetResult, error) {
		seen = append(seen, st.Name)
		return stageResult(slo.TargetRatePerMin/2, 100), nil
	}
	cand := core.Params{K: 90, S: time.Minute}
	inc := core.Params{K: 98, S: time.Hour}
	rep, err := StagedRollout(cand, inc, obj, nil, slo)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Accepted || rep.Chosen != cand || rep.Err != nil {
		t.Fatalf("healthy rollout not accepted: %+v", rep)
	}
	if len(seen) != len(DefaultRolloutStages) {
		t.Errorf("ran %d stages, want %d", len(seen), len(DefaultRolloutStages))
	}
}

func TestStagedRolloutRollsBackMidDeployment(t *testing.T) {
	slo := core.DefaultSLO
	obj := func(p core.Params, st RolloutStage, idx int) (model.FleetResult, error) {
		if st.Name == "half" {
			return stageResult(slo.TargetRatePerMin*3, 100), nil
		}
		return stageResult(slo.TargetRatePerMin/2, 100), nil
	}
	cand := core.Params{K: 60, S: 0}
	inc := core.Params{K: 98, S: time.Hour}
	rep, err := StagedRollout(cand, inc, obj, nil, slo)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Accepted {
		t.Fatal("SLO-breaching rollout accepted")
	}
	if rep.Chosen != inc {
		t.Errorf("rollback chose %+v, want incumbent %+v", rep.Chosen, inc)
	}
	if rep.RolledBackAt != "half" {
		t.Errorf("rolled back at %q, want \"half\"", rep.RolledBackAt)
	}
	if !errors.Is(rep.Err, ErrSLOViolated) {
		t.Errorf("rollback error %v does not wrap ErrSLOViolated", rep.Err)
	}
	// The fleet stage must never have run.
	if got := len(rep.Stages); got != 3 {
		t.Errorf("rollout ran %d stages, want 3 (canary, early, half)", got)
	}
}

func TestStagedRolloutRejectsEmptyStage(t *testing.T) {
	obj := func(p core.Params, st RolloutStage, idx int) (model.FleetResult, error) {
		return stageResult(0, 0), nil // nothing enabled: can't judge health
	}
	rep, err := StagedRollout(core.Params{K: 90, S: 0}, core.Params{K: 98, S: time.Hour}, obj, nil, core.DefaultSLO)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Accepted || !errors.Is(rep.Err, ErrNoObservations) {
		t.Fatalf("unobservable stage accepted: %+v", rep)
	}
}

// TestStagedRolloutRejectsBadRings: a ring outside (0, 1] or smaller
// than the ring before it is refused before any stage is pushed.
func TestStagedRolloutRejectsBadRings(t *testing.T) {
	pushed := 0
	obj := func(p core.Params, st RolloutStage, idx int) (model.FleetResult, error) {
		pushed++
		return stageResult(0.001, 100), nil
	}
	for _, stages := range [][]RolloutStage{
		{{"canary", 0.5}, {"fleet", 0.1}},
		{{"canary", 0.1}, {"early", 0}, {"fleet", 1}},
		{{"fleet", 1.01}},
	} {
		if _, err := StagedRollout(core.Params{K: 90, S: 0}, core.DefaultParams, obj, stages, core.DefaultSLO); err == nil {
			t.Errorf("rings %+v accepted", stages)
		}
	}
	if pushed != 0 {
		t.Errorf("%d stages pushed before the rings were refused", pushed)
	}
	if err := ValidateStages([]RolloutStage{{"a", 0.1}, {"b", 0.1}, {"c", 1}}); err != nil {
		t.Errorf("equal consecutive rings refused: %v", err)
	}
}

// quietTrace is jobs × intervals five-minute reports starting at startSec,
// with cold memory and no promotions: any enabled interval is healthy.
func quietTrace(t *testing.T, jobs, intervals int, startSec int64) *telemetry.Trace {
	t.Helper()
	return burstTrace(t, jobs, intervals, 0, startSec)
}

// burstTrace is quietTrace whose first hot intervals of every job promote
// a tenth of the working set per minute at every threshold: a candidate
// enabled during the burst breaches the SLO whatever threshold it runs.
func burstTrace(t *testing.T, jobs, intervals, hot int, startSec int64) *telemetry.Trace {
	t.Helper()
	tr := telemetry.NewTrace()
	n := len(tr.Thresholds)
	for j := 0; j < jobs; j++ {
		for i := 0; i < intervals; i++ {
			e := telemetry.Entry{
				Key:             telemetry.JobKey{Cluster: "c", Machine: "m", Job: string(rune('a' + j))},
				TimestampSec:    startSec + int64(i)*300,
				IntervalMinutes: 5,
				WSSPages:        100,
				TotalPages:      1000,
				ColdTails:       make([]uint64, n),
				PromoTails:      make([]uint64, n),
			}
			for k := 0; k < n; k++ {
				e.ColdTails[k] = uint64(500 - k)
				if i < hot {
					e.PromoTails[k] = 50
				}
			}
			if err := tr.Append(e); err != nil {
				t.Fatal(err)
			}
		}
	}
	return tr
}

// oneRing is a single deployment ring holding every job: the gate in
// front of a fleet-wide push.
var oneRing = []RolloutStage{{Name: "fleet", Fraction: 1}}

// oneRingObjective judges oneRing over the whole of tr.
func oneRingObjective(tr *telemetry.Trace) StageObjective {
	return CompiledStageObjective(model.Compile(tr), model.Config{SLO: core.DefaultSLO}, len(oneRing))
}

// TestStagedRolloutOneRing: a candidate that first runs after the burst
// is deployed; one running through it is rolled back with the failing
// ring and a reason; a failing objective is an error, not a rollback.
func TestStagedRolloutOneRing(t *testing.T) {
	slo := core.DefaultSLO
	obj := oneRingObjective(burstTrace(t, 4, 48, 12, 300)) // 4 hours, the first bursty
	incumbent := core.Params{K: 98, S: 20 * time.Minute}
	good := core.Params{K: 90, S: 2 * time.Hour}
	bad := core.Params{K: 90, S: 0}

	dec, err := StagedRollout(good, incumbent, obj, oneRing, slo)
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Accepted || dec.Chosen != good {
		t.Errorf("good candidate rejected: %+v", dec)
	}

	dec, err = StagedRollout(bad, incumbent, obj, oneRing, slo)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Accepted || dec.Chosen != incumbent {
		t.Errorf("bad candidate deployed: %+v", dec)
	}
	if len(dec.Stages) != 1 || dec.Stages[0].Reason == "" || dec.RolledBackAt != "fleet" {
		t.Errorf("rollback not explained: %+v", dec)
	}

	invalid := core.Params{K: 150}
	_, err = StagedRollout(invalid, incumbent, obj, oneRing, slo)
	if cause, want := errors.Unwrap(err), invalid.Validate(); cause == nil || cause.Error() != want.Error() {
		t.Errorf("err = %v, want one wrapping %q", err, want)
	}
}

func TestStagedRolloutOneRingErrWrapsSentinel(t *testing.T) {
	obj := oneRingObjective(burstTrace(t, 4, 48, 48, 300))
	dec, err := StagedRollout(core.Params{K: 60, S: 0}, core.Params{K: 98, S: time.Hour}, obj, oneRing, core.DefaultSLO)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Accepted {
		t.Fatal("violating candidate accepted")
	}
	if !errors.Is(dec.Err, ErrSLOViolated) {
		t.Errorf("decision error %v does not wrap ErrSLOViolated", dec.Err)
	}
}

// TestStagedRolloutOneRingNeedsObservations: a candidate whose warmup
// outlasts the ring's trace was never enabled on it. Its p98 of nothing is
// zero, which is within any SLO — and is no evidence at all.
func TestStagedRolloutOneRingNeedsObservations(t *testing.T) {
	slo := core.DefaultSLO
	obj := oneRingObjective(quietTrace(t, 4, 48, 300)) // 4 hours
	incumbent := core.Params{K: 98, S: time.Hour}
	rep, err := StagedRollout(core.Params{K: 90, S: 12 * time.Hour}, incumbent, obj, oneRing, slo)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Accepted || rep.Chosen != incumbent || !errors.Is(rep.Err, ErrNoObservations) {
		t.Fatalf("never-enabled candidate deployed: %+v", rep)
	}
	if rep, err = StagedRollout(core.Params{K: 90, S: time.Hour}, incumbent, obj, oneRing, slo); err != nil || !rep.Accepted {
		t.Fatalf("observed, healthy candidate rejected: %+v, %v", rep, err)
	}
}

// TestCompiledObjectiveEndToEnd runs the §5.3 pipeline over a synthetic
// fleet trace: compile once, replay the incumbent, autotune, and gate the
// winner on one ring over the same trace.
func TestCompiledObjectiveEndToEnd(t *testing.T) {
	trace, err := fleet.Generate(fleet.Config{
		Clusters: 1, MachinesPerCluster: 6, JobsPerMachine: 4,
		Duration: 8 * time.Hour, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	ct := model.Compile(trace)
	obj := CompiledObjective(ct, core.DefaultSLO)

	baseline, err := obj(core.DefaultParams)
	if err != nil {
		t.Fatal(err)
	}
	if baseline.Coverage <= 0 {
		t.Fatal("baseline replay produced no coverage")
	}
	res, err := Autotune(obj, Config{SLO: core.DefaultSLO, Seed: 4, Iterations: 5, InitSamples: 3})
	if err != nil {
		t.Fatal(err)
	}
	ring := CompiledStageObjective(ct, model.Config{SLO: core.DefaultSLO}, len(oneRing))
	dec, err := StagedRollout(res.Best.Params, core.DefaultParams, ring, oneRing, core.DefaultSLO)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Chosen != res.Best.Params && dec.Chosen != core.DefaultParams {
		t.Fatalf("deployment chose unknown params %+v", dec.Chosen)
	}
}

// TestStageObjectiveEmptySliceIsEmpty: a window spanning fewer seconds
// than there are rings (a forced round on a single-interval window) has
// nothing to give the early rings. They must see nothing — not, as the
// old "hi <= lo means unbounded" encoding had it, the entire window.
func TestStageObjectiveEmptySliceIsEmpty(t *testing.T) {
	slo := core.DefaultSLO
	tr := quietTrace(t, 6, 1, 300)
	everyone := []RolloutStage{{"a", 1}, {"b", 1}, {"c", 1}, {"d", 1}}
	obj := TraceStageObjective(tr, model.Config{SLO: slo}, len(everyone))
	p := core.Params{K: 90, S: 0}
	for idx, st := range everyone {
		fr, err := obj(p, st, idx)
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		if idx == len(everyone)-1 {
			want = 6 // the one timestamp falls in the last slice
		}
		if len(fr.Jobs) != want || fr.EnabledIntervals != want {
			t.Errorf("ring %d saw %d jobs / %d enabled intervals, want %d", idx, len(fr.Jobs), fr.EnabledIntervals, want)
		}
	}
	rep, err := StagedRollout(p, core.Params{K: 98, S: time.Hour}, obj, everyone, slo)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Accepted || rep.RolledBackAt != "a" || !errors.Is(rep.Err, ErrNoObservations) {
		t.Fatalf("rollout judged an empty ring: %+v", rep)
	}
}

func TestTraceStageObjectivePartitions(t *testing.T) {
	// Two jobs, 8 intervals each; with 2 stages the windows split in half
	// and the fleet stage (fraction 1.0) must see strictly more jobs than
	// a tiny canary.
	tr := telemetry.NewTrace()
	n := len(tr.Thresholds)
	for j := 0; j < 20; j++ {
		for i := int64(1); i <= 8; i++ {
			e := telemetry.Entry{
				Key:             telemetry.JobKey{Cluster: "c", Machine: "m", Job: string(rune('a' + j))},
				TimestampSec:    i * 300,
				IntervalMinutes: 5,
				WSSPages:        100,
				TotalPages:      1000,
				ColdTails:       make([]uint64, n),
				PromoTails:      make([]uint64, n),
			}
			for k := 0; k < n; k++ {
				e.ColdTails[k] = uint64(500 - k)
			}
			if err := tr.Append(e); err != nil {
				t.Fatal(err)
			}
		}
	}
	obj := TraceStageObjective(tr, model.Config{SLO: core.DefaultSLO}, 2)
	small, err := obj(core.DefaultParams, RolloutStage{Name: "canary", Fraction: 0.2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	full, err := obj(core.DefaultParams, RolloutStage{Name: "fleet", Fraction: 1.0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Jobs) != 20 {
		t.Errorf("fleet stage saw %d jobs, want all 20", len(full.Jobs))
	}
	if len(small.Jobs) == 0 || len(small.Jobs) >= len(full.Jobs) {
		t.Errorf("canary saw %d jobs, fleet %d: want 0 < canary < fleet", len(small.Jobs), len(full.Jobs))
	}
}
