package tuner

import (
	"errors"
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	"sdfm/internal/core"
	"sdfm/internal/model"
)

// syntheticObjective mimics the fleet model's response surface: coverage
// grows as K drops and S shrinks, while the p98 promotion rate crosses the
// SLO boundary near K = 85. The optimal feasible configuration is
// therefore just above the boundary with minimal warmup.
func syntheticObjective(p core.Params) (model.FleetResult, error) {
	kPenalty := (p.K - 50) / 50 * 0.6
	sPenalty := 0.3 * float64(p.S) / float64(2*time.Hour)
	coverage := 0.30 * (1 - kPenalty) * (1 - sPenalty)
	p98 := 0.002 * math.Exp((85-p.K)/8)
	return model.FleetResult{
		Coverage:       coverage,
		ColdBytes:      coverage * 1e12,
		ColdBytesAtMin: 1e12,
		P98Rate:        p98,
		// An observed fleet: health checks refuse to judge an empty one.
		EnabledIntervals: 1000,
	}, nil
}

func TestSpaceNormalizeRoundTrip(t *testing.T) {
	s := searchSpace
	for _, p := range []core.Params{
		{K: 50, S: 0},
		{K: 99.9, S: 2 * time.Hour},
		{K: 75, S: 30 * time.Minute},
	} {
		x := s.Normalize(p)
		q := s.Denormalize(x)
		if math.Abs(q.K-p.K) > 1e-9 || q.S != p.S {
			t.Errorf("round trip %+v -> %v -> %+v", p, x, q)
		}
		if x[0] < 0 || x[0] > 1 || x[1] < 0 || x[1] > 1 {
			t.Errorf("normalized point %v outside unit square", x)
		}
	}
	// Denormalize clamps out-of-range inputs.
	q := s.Denormalize([]float64{-0.5, 1.5})
	if q.K != s.KMin || q.S != s.SMax {
		t.Errorf("clamping broken: %+v", q)
	}
}

func TestScore(t *testing.T) {
	slo := core.DefaultSLO
	feasible := model.FleetResult{Coverage: 0.2, P98Rate: 0.001}
	s, ok := Score(feasible, slo)
	if !ok || s != 0.2 {
		t.Errorf("feasible score = %v, %v", s, ok)
	}
	infeasible := model.FleetResult{Coverage: 0.5, P98Rate: 0.004}
	s, ok = Score(infeasible, slo)
	if ok || s >= 0 {
		t.Errorf("infeasible score = %v, %v", s, ok)
	}
	// Worse violations score lower.
	worse := model.FleetResult{Coverage: 0.5, P98Rate: 0.008}
	s2, _ := Score(worse, slo)
	if s2 >= s {
		t.Errorf("worse violation %v should score below %v", s2, s)
	}
	// The penalty is capped.
	extreme := model.FleetResult{Coverage: 0, P98Rate: 1000}
	s3, _ := Score(extreme, slo)
	if s3 < -10 {
		t.Errorf("penalty uncapped: %v", s3)
	}
}

func TestAutotuneFindsNearOptimal(t *testing.T) {
	res, err := Autotune(syntheticObjective, Config{
		SLO: core.DefaultSLO, Seed: 1, Iterations: 25,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Best.Feasible {
		t.Fatalf("best observation infeasible: %+v", res.Best)
	}
	// The optimum is K ~= 85, S ~= 0 with coverage ~0.174; require the
	// bandit to get most of the way there.
	if res.Best.Result.Coverage < 0.15 {
		t.Errorf("best coverage = %.3f, want >= 0.15 (optimum ~0.174)", res.Best.Result.Coverage)
	}
	if res.Best.Params.K < 80 {
		t.Errorf("best K = %.1f is infeasible territory", res.Best.Params.K)
	}
	if len(res.History) != 5+25 {
		t.Errorf("history = %d, want 30", len(res.History))
	}
}

func TestAutotuneBeatsHeuristic(t *testing.T) {
	// The paper's headline: autotuning improved coverage ~30% over the
	// hand-tuned configuration.
	auto, err := Autotune(syntheticObjective, Config{SLO: core.DefaultSLO, Seed: 7, Iterations: 25})
	if err != nil {
		t.Fatal(err)
	}
	heur, err := HeuristicTune(syntheticObjective, DefaultHeuristicCandidates, core.DefaultSLO)
	if err != nil {
		t.Fatal(err)
	}
	if !heur.Best.Feasible {
		t.Fatal("heuristic found no feasible config")
	}
	improvement := auto.Best.Result.Coverage/heur.Best.Result.Coverage - 1
	if improvement < 0.15 {
		t.Errorf("autotuner improvement = %.1f%%, want >= 15%%", improvement*100)
	}
}

func TestAutotuneDeterministic(t *testing.T) {
	cfg := Config{SLO: core.DefaultSLO, Seed: 3, Iterations: 8}
	a, err := Autotune(syntheticObjective, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Autotune(syntheticObjective, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Best.Params != b.Best.Params {
		t.Errorf("nondeterministic: %+v vs %+v", a.Best.Params, b.Best.Params)
	}
	for i := range a.History {
		if a.History[i].Params != b.History[i].Params {
			t.Fatalf("history diverges at %d", i)
		}
	}
}

func TestAutotunePropagatesObjectiveError(t *testing.T) {
	boom := errors.New("model exploded")
	obj := func(core.Params) (model.FleetResult, error) { return model.FleetResult{}, boom }
	if _, err := Autotune(obj, Config{SLO: core.DefaultSLO}); !errors.Is(err, boom) {
		t.Errorf("err = %v, want wrapped boom", err)
	}
}

func TestAutotuneValidatesConfig(t *testing.T) {
	if _, err := Autotune(syntheticObjective, Config{SLO: core.SLO{}}); err == nil {
		t.Error("invalid SLO accepted")
	}
}

func TestHeuristicTune(t *testing.T) {
	res, err := HeuristicTune(syntheticObjective, DefaultHeuristicCandidates, core.DefaultSLO)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) != len(DefaultHeuristicCandidates) {
		t.Errorf("history = %d", len(res.History))
	}
	if !res.Best.Feasible {
		t.Error("heuristic best infeasible (all candidates are conservative)")
	}
	if _, err := HeuristicTune(syntheticObjective, nil, core.DefaultSLO); err == nil {
		t.Error("empty candidates accepted")
	}
}

func TestPickBestPrefersFeasible(t *testing.T) {
	h := []Observation{
		{Score: 5, Feasible: false},
		{Score: 0.1, Feasible: true},
		{Score: 0.3, Feasible: true},
	}
	best, err := pickBest(h)
	if err != nil {
		t.Fatal(err)
	}
	if !best.Feasible || best.Score != 0.3 {
		t.Errorf("best = %+v", best)
	}
	if _, err := pickBest(nil); err == nil {
		t.Error("empty history accepted")
	}
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name    string
		cfg     Config
		wantErr bool
	}{
		{"zero config uses defaults", Config{}, false},
		{"explicit minimum seeds", Config{InitSamples: 3}, false},
		{"negative InitSamples", Config{InitSamples: -1}, true},
		{"InitSamples truncates seed design", Config{InitSamples: 2}, true},
		{"negative Iterations", Config{Iterations: -5}, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.cfg.Validate()
			if (err != nil) != c.wantErr {
				t.Errorf("Validate() = %v, wantErr %v", err, c.wantErr)
			}
		})
	}
}

// TestAutotuneRejectsDegenerateConfig locks the fix for the panic at
// seeds[:cfg.InitSamples] on negative InitSamples and the silent zero-work
// loop on negative Iterations: both now fail fast with a descriptive
// error instead.
func TestAutotuneRejectsDegenerateConfig(t *testing.T) {
	for _, cfg := range []Config{
		{SLO: core.DefaultSLO, InitSamples: -2},
		{SLO: core.DefaultSLO, InitSamples: 1},
		{SLO: core.DefaultSLO, Iterations: -3},
	} {
		if _, err := Autotune(syntheticObjective, cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}

// useProcs sets GOMAXPROCS, which is the candidate scoring's worker
// count, to n until the test ends.
func useProcs(t *testing.T, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestAutotuneWorkerCountIndependent: a session on four processors
// evaluates the same configurations in the same order and picks the same
// best as on one — the UCB argmax and the hyperparameter grid reduce in
// index order, never in completion order.
func TestAutotuneWorkerCountIndependent(t *testing.T) {
	cfg := Config{SLO: core.DefaultSLO, Seed: 11, Iterations: 12}
	useProcs(t, 1)
	want, err := Autotune(syntheticObjective, cfg)
	if err != nil {
		t.Fatal(err)
	}
	useProcs(t, 4)
	for rep := 0; rep < 5; rep++ {
		got, err := Autotune(syntheticObjective, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.History, want.History) || !reflect.DeepEqual(got.Best, want.Best) {
			t.Fatalf("GOMAXPROCS=4, repeat %d: best %+v after %d evaluations, want %+v after %d as on one processor",
				rep, got.Best.Params, len(got.History), want.Best.Params, len(want.History))
		}
	}
}

// BenchmarkAutotuneGP times one default session's GP work — the grid
// searches, fits and UCB scoring of 15 iterations — over the synthetic
// objective, whose evaluations cost next to nothing.
func BenchmarkAutotuneGP(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Autotune(syntheticObjective, Config{SLO: core.DefaultSLO, Seed: int64(i % 3)}); err != nil {
			b.Fatal(err)
		}
	}
}
