package controlplane

import (
	"sort"
	"testing"
	"time"

	"sdfm/internal/core"
	"sdfm/internal/fleet"
	"sdfm/internal/model"
	"sdfm/internal/telemetry"
	"sdfm/internal/tuner"
)

// offlineDecision is one window's outcome from the offline reference
// pipeline: compile → Autotune → StagedRollout, incumbent chained.
type offlineDecision struct {
	candidate    core.Params
	chosen       core.Params
	accepted     bool
	rolledBackAt string
	gapIntervals int
	completeness float64
	tunerEvals   int
}

// offlineDecisions replays the controller's exact windowing rule over the
// raw trace — accumulate timestamp groups in ascending order, cut a window
// once its telemetry span reaches roundEvery — and runs the paper's
// offline pipeline on each window with the incumbent chained through.
func offlineDecisions(t *testing.T, tr *telemetry.Trace, roundEvery time.Duration,
	stages []tuner.RolloutStage, tcfg tuner.Config, mcfg model.Config,
	slo core.SLO, incumbent core.Params) []offlineDecision {
	t.Helper()
	roundSec := int64(roundEvery / time.Second)
	byTS := make(map[int64][]telemetry.Entry)
	var tsList []int64
	for _, e := range tr.Entries {
		if _, ok := byTS[e.TimestampSec]; !ok {
			tsList = append(tsList, e.TimestampSec)
		}
		byTS[e.TimestampSec] = append(byTS[e.TimestampSec], e)
	}
	sort.Slice(tsList, func(i, j int) bool { return tsList[i] < tsList[j] })

	var out []offlineDecision
	var win []telemetry.Entry
	winStart := int64(-1)
	for _, ts := range tsList {
		win = append(win, byTS[ts]...)
		if winStart < 0 {
			winStart = ts
		}
		if ts-winStart < roundSec {
			continue
		}
		wt := &telemetry.Trace{
			ScanPeriodSeconds: tr.ScanPeriodSeconds,
			Thresholds:        tr.Thresholds,
			Entries:           win,
		}
		ct := model.Compile(wt)
		obj := func(p core.Params) (model.FleetResult, error) {
			mc := mcfg
			mc.Params = p
			return ct.Run(mc)
		}
		res, err := tuner.Autotune(obj, tcfg)
		if err != nil {
			t.Fatalf("offline Autotune: %v", err)
		}
		dep, err := tuner.StagedRollout(res.Best.Params, incumbent,
			tuner.TraceStageObjective(wt, mcfg, len(stages)), stages, slo)
		if err != nil {
			t.Fatalf("offline StagedRollout: %v", err)
		}
		out = append(out, offlineDecision{
			candidate:    res.Best.Params,
			chosen:       dep.Chosen,
			accepted:     dep.Accepted,
			rolledBackAt: dep.RolledBackAt,
			gapIntervals: res.Best.Result.GapIntervals,
			completeness: res.Best.Result.Completeness,
			tunerEvals:   len(res.History),
		})
		incumbent = dep.Chosen
		win, winStart = nil, -1
	}
	return out
}

// TestLoopbackMatchesOfflineStagedRollout is the subsystem's acceptance
// criterion: with the loopback transport, a fixed seed, and no faults, the
// controller's sequence of deployed (K, S) decisions must be identical to
// the offline tuner.StagedRollout path run on the same trace — the online
// service is the offline pipeline, not an approximation of it.
func TestLoopbackMatchesOfflineStagedRollout(t *testing.T) {
	tr, err := fleet.Generate(fleet.Config{
		Clusters:           2,
		MachinesPerCluster: 3,
		JobsPerMachine:     4,
		Duration:           12 * time.Hour,
		Interval:           5 * time.Minute,
		Seed:               7,
	})
	if err != nil {
		t.Fatalf("fleet.Generate: %v", err)
	}

	const roundEvery = 3 * time.Hour
	slo := core.DefaultSLO
	incumbent := core.DefaultParams
	stages := []tuner.RolloutStage{
		{Name: "canary", Fraction: 0.25},
		{Name: "half", Fraction: 0.5},
		{Name: "fleet", Fraction: 1.0},
	}
	tcfg := fastTuner
	tcfg.SLO = slo
	mcfg := model.Config{SLO: slo}

	c := newTestController(t, Config{
		SLO:        slo,
		Incumbent:  incumbent,
		Tuner:      tcfg,
		Stages:     stages,
		RoundEvery: roundEvery,
	})
	rep, err := RunSim(c, tr, SimConfig{})
	if err != nil {
		t.Fatalf("RunSim: %v", err)
	}
	want := offlineDecisions(t, tr, roundEvery, stages, tcfg, mcfg, slo, incumbent)
	if len(want) < 2 {
		t.Fatalf("offline reference produced %d rounds; need >= 2 to exercise incumbent chaining", len(want))
	}
	if len(rep.Rounds) != len(want) {
		t.Fatalf("controller ran %d rounds, offline reference %d", len(rep.Rounds), len(want))
	}
	for i, rr := range rep.Rounds {
		w := want[i]
		if rr.Candidate != w.candidate {
			t.Errorf("round %d: candidate %+v, offline %+v", i+1, rr.Candidate, w.candidate)
		}
		if rr.Chosen != w.chosen {
			t.Errorf("round %d: chosen %+v, offline %+v", i+1, rr.Chosen, w.chosen)
		}
		if rr.Accepted != w.accepted || rr.RolledBackAt != w.rolledBackAt {
			t.Errorf("round %d: decision accepted=%v rolledBackAt=%q, offline accepted=%v rolledBackAt=%q",
				i+1, rr.Accepted, rr.RolledBackAt, w.accepted, w.rolledBackAt)
		}
		if rr.GapIntervals != w.gapIntervals || rr.Completeness != w.completeness {
			t.Errorf("round %d: gaps/completeness %d/%v, offline %d/%v",
				i+1, rr.GapIntervals, rr.Completeness, w.gapIntervals, w.completeness)
		}
		if rr.TunerEvals != w.tunerEvals {
			t.Errorf("round %d: tuner evals %d, offline %d", i+1, rr.TunerEvals, w.tunerEvals)
		}
	}
	if got := c.Incumbent(); got != want[len(want)-1].chosen {
		t.Errorf("final incumbent %+v, offline %+v", got, want[len(want)-1].chosen)
	}
}
