package experiments

import (
	"fmt"

	"sdfm/internal/core"
	"sdfm/internal/model"
	"sdfm/internal/tracestore"
	"sdfm/internal/tuner"
)

// TraceFileResult is an autotuning session run against an on-disk trace
// file instead of a freshly synthesized fleet.
type TraceFileResult struct {
	Path      string
	Entries   int
	Jobs      int
	Skipped   tracestore.Skipped
	Heuristic tuner.Observation
	Autotuned tuner.Observation
	Rollout   tuner.RolloutReport
}

// TraceFileAutotune runs the H2 comparison (heuristic baseline vs
// GP-bandit) plus a staged rollout of the winner against a trace file.
// The file is compiled out-of-core — chunks stream straight into the fast
// model's columnar form — so the experiment works on traces that never
// fit in memory; damaged chunks are skipped and replay as gap intervals.
func TraceFileAutotune(path string, seed int64) (TraceFileResult, error) {
	h, err := tracestore.Open(path)
	if err != nil {
		return TraceFileResult{}, err
	}
	defer h.Close()

	ct, err := h.Compile()
	if err != nil {
		return TraceFileResult{}, err
	}
	res := TraceFileResult{
		Path:    path,
		Entries: h.NumEntries(),
		Jobs:    len(h.Jobs()),
		Skipped: h.Skipped(),
	}

	obj := tuner.CompiledObjective(ct, core.DefaultSLO)
	heur, err := tuner.HeuristicTune(obj, tuner.DefaultHeuristicCandidates, core.DefaultSLO)
	if err != nil {
		return TraceFileResult{}, err
	}
	auto, err := tuner.Autotune(obj, tuner.Config{SLO: core.DefaultSLO, Seed: seed, Iterations: 15})
	if err != nil {
		return TraceFileResult{}, err
	}
	res.Heuristic, res.Autotuned = heur.Best, auto.Best

	// Push the winner through the staged deployment rings, each ring
	// health-checked against its own slice of the compiled timeline.
	stageObj := tuner.CompiledStageObjective(ct, model.Config{SLO: core.DefaultSLO}, len(tuner.DefaultRolloutStages))
	rollout, err := tuner.StagedRollout(auto.Best.Params, heur.Best.Params, stageObj, nil, core.DefaultSLO)
	if err != nil {
		return TraceFileResult{}, err
	}
	res.Rollout = rollout
	return res, nil
}

// Render prints the session summary.
func (r TraceFileResult) Render() string {
	s := fmt.Sprintf("Autotune against trace file %s\n", r.Path)
	s += fmt.Sprintf("entries: %d  jobs: %d\n", r.Entries, r.Jobs)
	if r.Skipped.Chunks > 0 || r.Skipped.Entries > 0 {
		s += fmt.Sprintf("damage skipped: %d chunks, %d entries (holes replay as gap intervals)\n",
			r.Skipped.Chunks, r.Skipped.Entries)
	}
	rows := [][]string{
		{"heuristic", fmt.Sprintf("K=%.1f S=%s", r.Heuristic.Params.K, r.Heuristic.Params.S),
			fmt.Sprintf("%.1f%%", r.Heuristic.Result.Coverage*100),
			fmt.Sprintf("%.4f%%/min", r.Heuristic.Result.P98Rate*100)},
		{"GP-bandit", fmt.Sprintf("K=%.1f S=%s", r.Autotuned.Params.K, r.Autotuned.Params.S),
			fmt.Sprintf("%.1f%%", r.Autotuned.Result.Coverage*100),
			fmt.Sprintf("%.4f%%/min", r.Autotuned.Result.P98Rate*100)},
	}
	s += table([]string{"tuner", "params", "coverage", "p98 rate"}, rows)
	s += "\nstaged rollout of the winner:\n"
	for _, sr := range r.Rollout.Stages {
		status := "ok"
		if !sr.Healthy {
			status = "ROLLED BACK"
		}
		s += fmt.Sprintf("  stage %-8s (%4.0f%% of jobs): %-11s %s\n",
			sr.Stage.Name, sr.Stage.Fraction*100, status, sr.Reason)
	}
	if r.Rollout.Accepted {
		s += fmt.Sprintf("rollout accepted: fleet now runs K=%.1f S=%s\n",
			r.Rollout.Chosen.K, r.Rollout.Chosen.S)
	} else {
		s += fmt.Sprintf("rollout rolled back at %q: fleet keeps K=%.1f S=%s\n",
			r.Rollout.RolledBackAt, r.Rollout.Chosen.K, r.Rollout.Chosen.S)
	}
	return s
}
