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

func TestQualifyAndDeployErrWrapsSentinel(t *testing.T) {
	slo := core.DefaultSLO
	hot := func(core.Params) (model.FleetResult, error) {
		return stageResult(slo.TargetRatePerMin*2, 100), nil
	}
	dec, err := QualifyAndDeploy(core.Params{K: 60, S: 0}, core.Params{K: 98, S: time.Hour}, hot, slo)
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

// quietTrace is jobs × intervals five-minute reports starting at startSec,
// with cold memory and no promotions: any enabled interval is healthy.
func quietTrace(t *testing.T, jobs, intervals int, startSec int64) *telemetry.Trace {
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
			}
			if err := tr.Append(e); err != nil {
				t.Fatal(err)
			}
		}
	}
	return tr
}

// TestQualifyAndDeployNeedsObservations: a candidate whose warmup outlasts
// the holdout was never enabled on it. Its p98 of nothing is zero, which
// is within any SLO — and is no evidence at all.
func TestQualifyAndDeployNeedsObservations(t *testing.T) {
	slo := core.DefaultSLO
	holdout := CompiledObjective(model.Compile(quietTrace(t, 4, 48, 300)), slo) // 4 hours
	incumbent := core.Params{K: 98, S: time.Hour}
	rep, err := QualifyAndDeploy(core.Params{K: 90, S: 12 * time.Hour}, incumbent, holdout, slo)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Accepted || rep.Chosen != incumbent || !errors.Is(rep.Err, ErrNoObservations) {
		t.Fatalf("never-enabled candidate qualified: %+v", rep)
	}
	if rep, err = QualifyAndDeploy(core.Params{K: 90, S: time.Hour}, incumbent, holdout, slo); err != nil || !rep.Accepted {
		t.Fatalf("observed, healthy candidate rejected: %+v, %v", rep, err)
	}
}

// TestCompiledObjectiveEndToEnd runs the §5.3 pipeline over a synthetic
// fleet trace: compile once, replay the incumbent, autotune, and qualify
// the winner on the same objective.
func TestCompiledObjectiveEndToEnd(t *testing.T) {
	trace, err := fleet.Generate(fleet.Config{
		Clusters: 1, MachinesPerCluster: 6, JobsPerMachine: 4,
		Duration: 8 * time.Hour, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	obj := CompiledObjective(model.Compile(trace), core.DefaultSLO)

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
	dec, err := QualifyAndDeploy(res.Best.Params, core.DefaultParams, obj, core.DefaultSLO)
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
