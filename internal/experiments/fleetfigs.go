package experiments

import (
	"fmt"
	"sort"
	"time"

	"sdfm/internal/chart"
	"sdfm/internal/core"
	"sdfm/internal/fleet"
	"sdfm/internal/model"
	"sdfm/internal/stats"
	"sdfm/internal/tuner"
)

// Fig1Result is the Figure 1 curve: fleet cold fraction and cold-memory
// access rate versus the cold-age threshold.
type Fig1Result struct {
	Points []fleet.ColdCurvePoint
}

// Fig1ColdMemoryVsThreshold reproduces Figure 1.
func Fig1ColdMemoryVsThreshold(scale Scale, seed int64) (Fig1Result, error) {
	trace, err := fleet.Generate(FleetConfig(scale, seed))
	if err != nil {
		return Fig1Result{}, err
	}
	return Fig1Result{Points: fleet.ColdCurve(trace)}, nil
}

// Render prints the curve as the paper's two series.
func (r Fig1Result) Render() string {
	rows := make([][]string, 0, len(r.Points))
	for _, p := range r.Points {
		rows = append(rows, []string{
			fmt.Sprintf("%.0f", p.ThresholdSeconds),
			fmt.Sprintf("%.1f%%", p.ColdFraction*100),
			fmt.Sprintf("%.1f%%/min", p.PromotionsPerMinPerColdByte*100),
		})
	}
	cold := chart.Series{Name: "cold memory %"}
	promo := chart.Series{Name: "cold accessed %/min"}
	for _, p := range r.Points {
		cold.Points = append(cold.Points, chart.Point{X: p.ThresholdSeconds, Y: p.ColdFraction * 100})
		promo.Points = append(promo.Points, chart.Point{X: p.ThresholdSeconds, Y: p.PromotionsPerMinPerColdByte * 100})
	}
	plot := chart.Render(chart.Config{
		Title: "cold memory and access rate vs T (log x)", LogX: true,
		XLabel: "cold age threshold (s)", YLabel: "%",
	}, cold, promo)
	return "Figure 1: cold memory and promotion rate vs cold age threshold T\n" +
		table([]string{"T(s)", "cold memory", "cold accessed"}, rows) + "\n" + plot
}

// ClusterSummary is one cluster's per-machine distribution (a violin in
// the paper's Figures 2 and 6).
type ClusterSummary struct {
	Cluster string
	Summary stats.Summary
}

// Fig2Result is the per-machine cold-fraction distribution per cluster.
type Fig2Result struct {
	Clusters []ClusterSummary
	// FleetMin and FleetMax are the extremes across all machines.
	FleetMin, FleetMax float64
}

// Fig2ColdMemoryAcrossMachines reproduces Figure 2.
func Fig2ColdMemoryAcrossMachines(scale Scale, seed int64) (Fig2Result, error) {
	trace, err := fleet.Generate(FleetConfig(scale, seed))
	if err != nil {
		return Fig2Result{}, err
	}
	byMachine := fleet.MachineColdFractions(trace)
	perCluster := make(map[string][]float64)
	res := Fig2Result{FleetMin: 1}
	for k, v := range byMachine {
		perCluster[k.Cluster] = append(perCluster[k.Cluster], v)
		if v < res.FleetMin {
			res.FleetMin = v
		}
		if v > res.FleetMax {
			res.FleetMax = v
		}
	}
	names := make([]string, 0, len(perCluster))
	for name := range perCluster {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		res.Clusters = append(res.Clusters, ClusterSummary{
			Cluster: name,
			Summary: stats.Summarize(perCluster[name]),
		})
	}
	return res, nil
}

// Render prints per-cluster quartiles.
func (r Fig2Result) Render() string {
	rows := make([][]string, 0, len(r.Clusters))
	for _, c := range r.Clusters {
		s := c.Summary
		rows = append(rows, []string{
			c.Cluster,
			fmt.Sprintf("%d", s.N),
			fmt.Sprintf("%.1f%%", s.Median*100),
			fmt.Sprintf("%.1f%%", s.Q1*100),
			fmt.Sprintf("%.1f%%", s.Q3*100),
			fmt.Sprintf("%.1f%%", s.WhiskerLo*100),
			fmt.Sprintf("%.1f%%", s.WhiskerHi*100),
		})
	}
	return fmt.Sprintf("Figure 2: cold memory across machines (fleet range %.1f%%-%.1f%%)\n",
		r.FleetMin*100, r.FleetMax*100) +
		table([]string{"cluster", "machines", "median", "q1", "q3", "lo", "hi"}, rows)
}

// Fig3Result is the cumulative distribution of per-job cold fractions.
type Fig3Result struct {
	CDF []stats.Point
	P10 float64 // bottom decile cold fraction
	P90 float64 // top decile cold fraction
}

// Fig3ColdMemoryAcrossJobs reproduces Figure 3.
func Fig3ColdMemoryAcrossJobs(scale Scale, seed int64) (Fig3Result, error) {
	trace, err := fleet.Generate(FleetConfig(scale, seed))
	if err != nil {
		return Fig3Result{}, err
	}
	byJob := fleet.JobColdFractions(trace)
	vals := make([]float64, 0, len(byJob))
	for _, v := range byJob {
		vals = append(vals, v)
	}
	cdf := stats.NewCDF(vals)
	return Fig3Result{
		CDF: cdf.Points(20),
		P10: stats.Percentile(vals, 10),
		P90: stats.Percentile(vals, 90),
	}, nil
}

// Render prints the CDF.
func (r Fig3Result) Render() string {
	rows := make([][]string, 0, len(r.CDF))
	for _, p := range r.CDF {
		rows = append(rows, []string{
			fmt.Sprintf("%.1f%%", p.X*100),
			fmt.Sprintf("%.2f", p.Y),
		})
	}
	cdf := chart.Series{Name: "jobs"}
	for _, p := range r.CDF {
		cdf.Points = append(cdf.Points, chart.Point{X: p.X * 100, Y: p.Y})
	}
	plot := chart.Render(chart.Config{
		XLabel: "cold fraction (%)", YLabel: "cumulative jobs", YMin: 0, YMax: 1,
	}, cdf)
	return fmt.Sprintf("Figure 3: cold memory across jobs (p10=%.1f%%, p90=%.1f%%)\n",
		r.P10*100, r.P90*100) +
		table([]string{"cold fraction", "cum. jobs"}, rows) + "\n" + plot
}

// RolloutResult is the Figure 5 timeline with the tuned parameters.
type RolloutResult struct {
	Timeline []model.TimelinePoint
	// ManualCoverage and AutotunedCoverage are the steady-state averages
	// of the two enabled stages.
	ManualCoverage    float64
	AutotunedCoverage float64
	ManualParams      core.Params
	AutotunedParams   core.Params
	ImprovementFrac   float64
}

// Fig5CoverageTimeline reproduces Figure 5: zswap off, then the
// hand-tuned roll-out, then the autotuner's parameters (tuned on the
// manual stage's trace slice).
func Fig5CoverageTimeline(scale Scale, seed int64) (RolloutResult, error) {
	cfg := FleetConfig(scale, seed)
	trace, err := fleet.Generate(cfg)
	if err != nil {
		return RolloutResult{}, err
	}
	offEnd := cfg.Duration / 4
	manualEnd := cfg.Duration * 5 / 8

	// Stage A-B: the histograms exist even while zswap is off, so the
	// hand-tuning A/B process runs on the pre-rollout slice. The trace is
	// compiled once; every stage is a slice of it and every candidate
	// evaluation a pure replay.
	ct := model.Compile(trace)
	offEndSec, manualEndSec := int64(offEnd/time.Second), int64(manualEnd/time.Second)
	pre := tuner.CompiledObjective(ct.Slice(0, offEndSec, nil), core.DefaultSLO)
	heur, err := tuner.HeuristicTune(pre, tuner.DefaultHeuristicCandidates, core.DefaultSLO)
	if err != nil {
		return RolloutResult{}, err
	}
	manual := heur.Best.Params

	// Stage C-D: the autotuner trains on the manual stage's data.
	obj := tuner.CompiledObjective(ct.Slice(offEndSec, manualEndSec, nil), core.DefaultSLO)
	tuned, err := tuner.Autotune(obj, tuner.Config{SLO: core.DefaultSLO, Seed: seed, Iterations: 12})
	if err != nil {
		return RolloutResult{}, err
	}

	phases := []model.Phase{
		{Name: "off", Start: 0, Params: manual, Enabled: false},
		{Name: "manual", Start: offEnd, Params: manual, Enabled: true},
		{Name: "autotuned", Start: manualEnd, Params: tuned.Best.Params, Enabled: true},
	}
	timeline, err := ct.Timeline(phases, model.Config{SLO: core.DefaultSLO})
	if err != nil {
		return RolloutResult{}, err
	}
	res := RolloutResult{
		Timeline:        timeline,
		ManualParams:    manual,
		AutotunedParams: tuned.Best.Params,
	}
	// Steady-state averages: skip the first quarter of each stage.
	res.ManualCoverage = stageMean(timeline, "manual", offEnd, manualEnd)
	res.AutotunedCoverage = stageMean(timeline, "autotuned", manualEnd, cfg.Duration)
	if res.ManualCoverage > 0 {
		res.ImprovementFrac = res.AutotunedCoverage/res.ManualCoverage - 1
	}
	return res, nil
}

func stageMean(pts []model.TimelinePoint, stage string, start, end time.Duration) float64 {
	warm := start + (end-start)/4
	var sum float64
	n := 0
	for _, p := range pts {
		if p.Phase == stage && p.Time >= warm && p.Time < end {
			sum += p.Coverage
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Render prints the coverage timeline (hour granularity) and the stage
// averages.
func (r RolloutResult) Render() string {
	rows := make([][]string, 0)
	lastHour := time.Duration(-1)
	for _, p := range r.Timeline {
		hour := p.Time.Truncate(time.Hour)
		if hour == lastHour {
			continue
		}
		lastHour = hour
		rows = append(rows, []string{
			fmt.Sprintf("%.0fh", hour.Hours()),
			p.Phase,
			fmt.Sprintf("%.1f%%", p.Coverage*100),
		})
	}
	head := fmt.Sprintf(
		"Figure 5: coverage timeline; manual %.1f%% (K=%.0f,S=%s) -> autotuned %.1f%% (K=%.1f,S=%s), +%.0f%%\n",
		r.ManualCoverage*100, r.ManualParams.K, r.ManualParams.S,
		r.AutotunedCoverage*100, r.AutotunedParams.K, r.AutotunedParams.S,
		r.ImprovementFrac*100)
	series := chart.Series{Name: "coverage %"}
	for _, p := range r.Timeline {
		series.Points = append(series.Points, chart.Point{X: p.Time.Hours(), Y: p.Coverage * 100})
	}
	plot := chart.Render(chart.Config{XLabel: "hours", YLabel: "coverage %"}, series)
	return head + table([]string{"time", "stage", "coverage"}, rows) + "\n" + plot
}

// Fig6Result is the per-machine coverage distribution per cluster.
type Fig6Result struct {
	Clusters []ClusterSummary
}

// Fig6CoverageAcrossMachines reproduces Figure 6: replay the trace under
// the given parameters and summarize per-machine coverage by cluster.
func Fig6CoverageAcrossMachines(scale Scale, seed int64, params core.Params) (Fig6Result, error) {
	trace, err := fleet.Generate(FleetConfig(scale, seed))
	if err != nil {
		return Fig6Result{}, err
	}
	res, err := model.Run(trace, model.Config{Params: params, SLO: core.DefaultSLO})
	if err != nil {
		return Fig6Result{}, err
	}
	type acc struct{ cold, coldMin float64 }
	byMachine := make(map[fleet.MachineKey]*acc)
	for _, j := range res.Jobs {
		k := fleet.MachineKey{Cluster: j.Key.Cluster, Machine: j.Key.Machine}
		a, ok := byMachine[k]
		if !ok {
			a = &acc{}
			byMachine[k] = a
		}
		a.cold += j.MeanColdPages
		a.coldMin += j.MeanColdAtMinPages
	}
	perCluster := make(map[string][]float64)
	for k, a := range byMachine {
		if a.coldMin > 0 {
			perCluster[k.Cluster] = append(perCluster[k.Cluster], a.cold/a.coldMin)
		}
	}
	names := make([]string, 0, len(perCluster))
	for n := range perCluster {
		names = append(names, n)
	}
	sort.Strings(names)
	var out Fig6Result
	for _, n := range names {
		out.Clusters = append(out.Clusters, ClusterSummary{
			Cluster: n, Summary: stats.Summarize(perCluster[n]),
		})
	}
	return out, nil
}

// Render prints per-cluster coverage quartiles.
func (r Fig6Result) Render() string {
	rows := make([][]string, 0, len(r.Clusters))
	for _, c := range r.Clusters {
		s := c.Summary
		rows = append(rows, []string{
			c.Cluster,
			fmt.Sprintf("%d", s.N),
			fmt.Sprintf("%.1f%%", s.Median*100),
			fmt.Sprintf("%.1f%%", s.Q1*100),
			fmt.Sprintf("%.1f%%", s.Q3*100),
		})
	}
	return "Figure 6: cold memory coverage across machines\n" +
		table([]string{"cluster", "machines", "median", "q1", "q3"}, rows)
}

// Fig7Result compares the normalized promotion-rate distribution before
// and after the autotuner.
type Fig7Result struct {
	BeforeCDF []stats.Point
	AfterCDF  []stats.Point
	BeforeP98 float64
	AfterP98  float64
	SLOTarget float64
	Params    core.Params // autotuned
}

// Fig7PromotionRateCDF reproduces Figure 7.
func Fig7PromotionRateCDF(scale Scale, seed int64) (Fig7Result, error) {
	trace, err := fleet.Generate(FleetConfig(scale, seed))
	if err != nil {
		return Fig7Result{}, err
	}
	// One compile serves the heuristic baseline, the whole GP-Bandit
	// session, and the two final rate sweeps.
	ct := model.Compile(trace)
	obj := tuner.CompiledObjective(ct, core.DefaultSLO)
	heur, err := tuner.HeuristicTune(obj, tuner.DefaultHeuristicCandidates, core.DefaultSLO)
	if err != nil {
		return Fig7Result{}, err
	}
	tuned, err := tuner.Autotune(obj, tuner.Config{SLO: core.DefaultSLO, Seed: seed, Iterations: 12})
	if err != nil {
		return Fig7Result{}, err
	}
	// Each configuration's CDF is over the per-job mean rates its p98,
	// the SLO statistic, is taken across.
	sweep := func(p core.Params) (cdf []stats.Point, p98 float64, err error) {
		res, err := ct.Run(model.Config{Params: p, SLO: core.DefaultSLO})
		if err != nil {
			return nil, 0, err
		}
		var rates []float64
		for _, j := range res.Jobs {
			if j.Enabled > 0 {
				rates = append(rates, j.MeanRate)
			}
		}
		return stats.NewCDF(rates).Points(20), res.P98Rate, nil
	}
	r := Fig7Result{SLOTarget: core.DefaultSLO.TargetRatePerMin, Params: tuned.Best.Params}
	if r.BeforeCDF, r.BeforeP98, err = sweep(heur.Best.Params); err != nil {
		return Fig7Result{}, err
	}
	if r.AfterCDF, r.AfterP98, err = sweep(tuned.Best.Params); err != nil {
		return Fig7Result{}, err
	}
	return r, nil
}

// Render prints the two CDFs' key percentiles.
func (r Fig7Result) Render() string {
	rows := [][]string{
		{"before (manual)", fmt.Sprintf("%.4f%%/min", r.BeforeP98*100)},
		{"after (autotuned)", fmt.Sprintf("%.4f%%/min", r.AfterP98*100)},
		{"SLO target", fmt.Sprintf("%.4f%%/min", r.SLOTarget*100)},
	}
	before := chart.Series{Name: "before"}
	for _, p := range r.BeforeCDF {
		before.Points = append(before.Points, chart.Point{X: p.X * 100, Y: p.Y})
	}
	after := chart.Series{Name: "after"}
	for _, p := range r.AfterCDF {
		after.Points = append(after.Points, chart.Point{X: p.X * 100, Y: p.Y})
	}
	plot := chart.Render(chart.Config{
		XLabel: "promotion rate (% of WSS per min)", YLabel: "cumulative jobs",
		YMin: 0, YMax: 1,
	}, before, after)
	return "Figure 7: normalized promotion rate p98 across jobs\n" +
		table([]string{"configuration", "p98 rate"}, rows) + "\n" + plot
}

// H2Result is the autotuner-vs-heuristic headline.
type H2Result struct {
	Heuristic       tuner.Observation
	Autotuned       tuner.Observation
	ImprovementFrac float64
}

// H2AutotunerVsHeuristic reproduces the ~30% efficiency improvement of
// the ML autotuner over heuristic tuning.
func H2AutotunerVsHeuristic(scale Scale, seed int64) (H2Result, error) {
	trace, err := fleet.Generate(FleetConfig(scale, seed))
	if err != nil {
		return H2Result{}, err
	}
	ct := model.Compile(trace)
	obj := tuner.CompiledObjective(ct, core.DefaultSLO)
	heur, err := tuner.HeuristicTune(obj, tuner.DefaultHeuristicCandidates, core.DefaultSLO)
	if err != nil {
		return H2Result{}, err
	}
	auto, err := tuner.Autotune(obj, tuner.Config{SLO: core.DefaultSLO, Seed: seed, Iterations: 15})
	if err != nil {
		return H2Result{}, err
	}
	res := H2Result{Heuristic: heur.Best, Autotuned: auto.Best}
	if heur.Best.Result.Coverage > 0 {
		res.ImprovementFrac = auto.Best.Result.Coverage/heur.Best.Result.Coverage - 1
	}
	return res, nil
}

// Render prints the comparison.
func (r H2Result) Render() string {
	rows := [][]string{
		{"heuristic", fmt.Sprintf("K=%.1f S=%s", r.Heuristic.Params.K, r.Heuristic.Params.S),
			fmt.Sprintf("%.1f%%", r.Heuristic.Result.Coverage*100),
			fmt.Sprintf("%.4f%%/min", r.Heuristic.Result.P98Rate*100)},
		{"GP-bandit", fmt.Sprintf("K=%.1f S=%s", r.Autotuned.Params.K, r.Autotuned.Params.S),
			fmt.Sprintf("%.1f%%", r.Autotuned.Result.Coverage*100),
			fmt.Sprintf("%.4f%%/min", r.Autotuned.Result.P98Rate*100)},
	}
	return fmt.Sprintf("Autotuner vs heuristic: +%.0f%% coverage\n", r.ImprovementFrac*100) +
		table([]string{"tuner", "params", "coverage", "p98 rate"}, rows)
}
