// Package tuner implements the ML-based autotuning pipeline (§5.3): a
// GP-Bandit loop that searches the control-plane parameter space (K, S)
// against the fast far-memory model, maximizing fleet cold memory subject
// to the 98th-percentile promotion-rate SLO, plus the heuristic baseline
// it replaced and the staged deployment with rollback that guards
// production.
package tuner

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"sdfm/internal/core"
	"sdfm/internal/gp"
	"sdfm/internal/model"
	"sdfm/internal/obs"
	"sdfm/internal/par"
)

// space is the parameter search space.
type space struct {
	KMin, KMax float64
	SMin, SMax time.Duration
}

// searchSpace covers the plausible operating range: percentiles from the
// median to just under 100, warmups from zero to two hours.
var searchSpace = space{KMin: 50, KMax: 99.9, SMin: 0, SMax: 2 * time.Hour}

// Normalize maps params into the unit square.
func (s space) Normalize(p core.Params) []float64 {
	return []float64{
		(p.K - s.KMin) / (s.KMax - s.KMin),
		float64(p.S-s.SMin) / float64(s.SMax-s.SMin),
	}
}

// Denormalize maps a unit-square point back to params, clamping to the
// space.
func (s space) Denormalize(x []float64) core.Params {
	k := s.KMin + clamp01(x[0])*(s.KMax-s.KMin)
	sec := float64(s.SMin) + clamp01(x[1])*float64(s.SMax-s.SMin)
	return core.Params{K: k, S: time.Duration(sec)}
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// Objective evaluates a parameter configuration, typically by replaying a
// fleet trace through the fast model.
type Objective func(core.Params) (model.FleetResult, error)

// Observation is one evaluated configuration.
type Observation struct {
	Params   core.Params
	Result   model.FleetResult
	Score    float64
	Feasible bool
}

// Config configures the GP-Bandit loop.
type Config struct {
	SLO core.SLO
	// InitSamples seeds the GP before banditry begins (default 5).
	InitSamples int
	// Iterations is the number of GP-guided evaluations (default 15).
	Iterations int
	// Seed drives the deterministic candidate sampler.
	Seed int64
	// Obs, when set, counts evaluations and lays the search out on a
	// logical timeline (one span per evaluation, 1 ms apart) so a Chrome
	// trace shows the seed design and each GP iteration. Observation-only;
	// the search itself is unaffected.
	Obs *obs.Observer
}

// ucbCandidates is the number of random points scored by UCB per
// iteration.
const ucbCandidates = 512

func (c *Config) fillDefaults() {
	if c.InitSamples == 0 {
		c.InitSamples = 5
	}
	if c.Iterations == 0 {
		c.Iterations = 15
	}
}

// Validate reports configuration errors with enough detail to fix them.
// Zero values are legal (they select the documented defaults); what is
// rejected is the explicitly wrong: negative counts, which would panic or
// degenerate the loop (a negative InitSamples used to panic slicing the
// seed design, a negative Iterations silently ran zero GP steps), and an
// InitSamples below 3, which would silently truncate the deliberate
// two-corners-plus-centre seed design the GP depends on for a sane prior.
func (c Config) Validate() error {
	d := c
	d.fillDefaults()
	if c.InitSamples < 0 {
		return fmt.Errorf("tuner: InitSamples %d is negative; use 0 for the default (5) or at least 3", c.InitSamples)
	}
	if d.InitSamples < 3 {
		return fmt.Errorf("tuner: InitSamples %d would truncate the seed design; the GP needs the two conservative corners and the centre (>= 3)", c.InitSamples)
	}
	if c.Iterations < 0 {
		return fmt.Errorf("tuner: Iterations %d is negative; use 0 for the default (15)", c.Iterations)
	}
	return nil
}

// noiseVar is the GP observation noise: the model is deterministic, so
// observation noise is tiny.
const noiseVar = 1e-4

// Result is the autotuning outcome.
type Result struct {
	Best    Observation
	History []Observation
}

// Score turns a model result into the scalar the GP maximizes: coverage
// when the SLO constraint holds, and a negative infeasibility penalty
// otherwise so the GP learns where the constraint boundary lies.
func Score(r model.FleetResult, slo core.SLO) (float64, bool) {
	if ok, excess := slo.Check(r.P98Rate); !ok {
		return -min(excess, 10), false
	}
	return r.Coverage, true
}

// Autotune runs the GP-Bandit pipeline: seed the design, then iterate
// fit-GP → maximize UCB over candidates → evaluate with the model → add
// the observation (§5.3 steps 1–3).
func Autotune(obj Objective, cfg Config) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	cfg.fillDefaults()
	if err := cfg.SLO.Validate(); err != nil {
		return Result{}, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	var evals, feasibles *obs.Counter
	var bestGauge *obs.Gauge
	var tracer *obs.Tracer
	laneSearch := -1
	if cfg.Obs != nil {
		evals = cfg.Obs.Counter("sdfm_tuner_evals_total", "Objective evaluations run.")
		feasibles = cfg.Obs.Counter("sdfm_tuner_feasible_total", "Evaluations satisfying the promotion-rate SLO.")
		bestGauge = cfg.Obs.Gauge("sdfm_tuner_best_score", "Score of the best observation so far.")
		tracer = cfg.Obs.Tracer()
		laneSearch = cfg.Obs.Lane("search")
	}

	var res Result
	evaluate := func(phase string, p core.Params) error {
		fr, err := obj(p)
		if err != nil {
			return fmt.Errorf("tuner: evaluating %+v: %w", p, err)
		}
		score, feasible := Score(fr, cfg.SLO)
		// Logical timeline: evaluation i occupies [i ms, (i+1) ms).
		tracer.Emit(laneSearch, phase, time.Duration(len(res.History))*time.Millisecond, time.Millisecond)
		evals.Inc()
		if feasible {
			feasibles.Inc()
		}
		res.History = append(res.History, Observation{
			Params: p, Result: fr, Score: score, Feasible: feasible,
		})
		if b, err := pickBest(res.History); err == nil {
			bestGauge.Set(b.Score)
		}
		return nil
	}

	// Seed design: corners biased toward the feasible (conservative)
	// region, the centre, then stratified random points.
	seeds := []core.Params{
		{K: searchSpace.KMax, S: searchSpace.SMax},
		{K: searchSpace.KMax, S: searchSpace.SMin},
		{K: (searchSpace.KMin + searchSpace.KMax) / 2, S: (searchSpace.SMin + searchSpace.SMax) / 2},
	}
	for len(seeds) < cfg.InitSamples {
		seeds = append(seeds, searchSpace.Denormalize([]float64{rng.Float64(), rng.Float64()}))
	}
	for _, p := range seeds[:cfg.InitSamples] {
		if err := evaluate("seed", p); err != nil {
			return Result{}, err
		}
	}

	// Candidates are scored on par's workers, each with its own scorer
	// (the fitted GP is read-only while they run); the points, the scores
	// and the scorers' buffers are allocated once per session.
	workers := par.Workers()
	scorers := make([]gp.Scorer, workers)
	cands := make([]float64, 2*ucbCandidates)
	ucbs := make([]float64, ucbCandidates)
	for t := 1; t <= cfg.Iterations; t++ {
		g, err := fitGP(res.History)
		if err != nil {
			return Result{}, err
		}
		beta := gp.UCBBeta(t, ucbCandidates)
		// Draw every candidate up front so the rng stream is consumed in
		// the same order as a serial scan. The argmax reduction runs in
		// candidate order with strict >, so the chosen point — ties
		// included — matches the serial loop exactly.
		for i := range cands {
			cands[i] = rng.Float64()
		}
		if err := par.For(ucbCandidates, workers, func(w, c int) (err error) {
			ucbs[c], err = scorers[w].UCB(g, cands[2*c:2*c+2], beta)
			return err
		}); err != nil {
			return Result{}, err
		}
		bestC := -1
		bestU := math.Inf(-1)
		for c, u := range ucbs {
			if u > bestU {
				bestU, bestC = u, c
			}
		}
		if err := evaluate("gp-iter", searchSpace.Denormalize(cands[2*bestC:2*bestC+2])); err != nil {
			return Result{}, err
		}
	}

	best, err := pickBest(res.History)
	if err != nil {
		return Result{}, err
	}
	res.Best = best
	return res, nil
}

// fitGP returns the iteration's GP fitted to history. Once enough
// observations exist its hyperparameters are selected by marginal
// likelihood, and the winning grid cell's GP is used as fitted; otherwise,
// or when no cell fits, a sensible default kernel is.
func fitGP(history []Observation) (*gp.GP, error) {
	xs := make([][]float64, len(history))
	ys := make([]float64, len(history))
	for i, o := range history {
		xs[i] = searchSpace.Normalize(o.Params)
		ys[i] = o.Score
	}
	if len(history) >= 6 {
		if g, err := gp.FitHyperparams(xs, ys, noiseVar); err == nil {
			return g, nil
		}
	}
	g := gp.New(gp.RBF{Variance: 1, LengthScales: []float64{0.25, 0.25}}, noiseVar)
	for i := range xs {
		g.Add(xs[i], ys[i])
	}
	return g, g.Fit()
}

func pickBest(history []Observation) (Observation, error) {
	if len(history) == 0 {
		return Observation{}, ErrNoObservations
	}
	best := history[0]
	for _, o := range history[1:] {
		if betterThan(o, best) {
			best = o
		}
	}
	return best, nil
}

// betterThan prefers feasible over infeasible, then higher score.
func betterThan(a, b Observation) bool {
	if a.Feasible != b.Feasible {
		return a.Feasible
	}
	return a.Score > b.Score
}

// HeuristicTune is the pre-autotuner baseline: evaluate a handful of
// educated-guess configurations (the paper's months-long manual A/B
// process compressed to its logical structure) and keep the best feasible
// one.
func HeuristicTune(obj Objective, candidates []core.Params, slo core.SLO) (Result, error) {
	if len(candidates) == 0 {
		return Result{}, fmt.Errorf("tuner: no heuristic candidates: %w", ErrNoObservations)
	}
	var res Result
	for _, p := range candidates {
		fr, err := obj(p)
		if err != nil {
			return Result{}, err
		}
		score, feasible := Score(fr, slo)
		res.History = append(res.History, Observation{Params: p, Result: fr, Score: score, Feasible: feasible})
	}
	best, err := pickBest(res.History)
	if err != nil {
		return Result{}, err
	}
	res.Best = best
	return res, nil
}

// DefaultHeuristicCandidates are the conservative educated guesses a
// hand-tuning process tries when every candidate must be safe enough to
// A/B in production: near-maximal percentiles and generous warmups. The
// offline model lets the GP-Bandit explore far closer to the SLO boundary
// than a human would risk, which is where its coverage gain comes from
// (§5.3, Figure 5).
var DefaultHeuristicCandidates = []core.Params{
	{K: 99.9, S: 2 * time.Hour},
	{K: 99.5, S: 90 * time.Minute},
	{K: 99, S: 60 * time.Minute},
}
