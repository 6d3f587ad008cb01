package gp

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
)

func TestRBFKernelProperties(t *testing.T) {
	k := RBF{Variance: 2, LengthScales: []float64{0.5, 0.5}}
	x := []float64{0.3, 0.7}
	// k(x,x) = variance.
	if got := k.Eval(x, x); got != 2 {
		t.Errorf("k(x,x) = %v, want 2", got)
	}
	// Symmetry.
	y := []float64{0.8, 0.1}
	if k.Eval(x, y) != k.Eval(y, x) {
		t.Error("RBF not symmetric")
	}
	// Decay with distance.
	near := k.Eval(x, []float64{0.31, 0.71})
	far := k.Eval(x, []float64{0.9, 0.0})
	if near <= far {
		t.Error("RBF does not decay with distance")
	}
}

func TestGPInterpolatesWithSmallNoise(t *testing.T) {
	g := New(RBF{Variance: 1, LengthScales: []float64{0.3}}, 1e-8)
	f := func(x float64) float64 { return math.Sin(2 * math.Pi * x) }
	for _, x := range []float64{0, 0.2, 0.4, 0.6, 0.8, 1} {
		g.Add([]float64{x}, f(x))
	}
	if err := g.Fit(); err != nil {
		t.Fatal(err)
	}
	// At training points the posterior mean matches and variance is ~0.
	for _, x := range []float64{0.2, 0.6} {
		m, v, err := g.Predict([]float64{x})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(m-f(x)) > 1e-3 {
			t.Errorf("mean at %v = %v, want %v", x, m, f(x))
		}
		if v > 1e-4 {
			t.Errorf("variance at training point = %v", v)
		}
	}
	// Interpolation between points is close; extrapolation variance grows.
	m, _, _ := g.Predict([]float64{0.3})
	if math.Abs(m-f(0.3)) > 0.12 {
		t.Errorf("interpolated mean at 0.3 = %v, want ~%v", m, f(0.3))
	}
	_, vIn, _ := g.Predict([]float64{0.3})
	_, vOut, _ := g.Predict([]float64{3.0})
	if vOut <= vIn {
		t.Errorf("extrapolation variance %v <= interpolation variance %v", vOut, vIn)
	}
}

func TestGPPredictUnfitted(t *testing.T) {
	g := New(RBF{Variance: 1, LengthScales: []float64{1}}, 0.01)
	if _, _, err := g.Predict([]float64{0}); err == nil {
		t.Error("predict with no data succeeded")
	}
	if err := g.Fit(); err == nil {
		t.Error("fit with no data succeeded")
	}
}

func TestGPAutoRefitsAfterAdd(t *testing.T) {
	g := New(RBF{Variance: 1, LengthScales: []float64{0.3}}, 1e-6)
	g.Add([]float64{0}, 0)
	m1, _, err := g.Predict([]float64{0.5})
	if err != nil {
		t.Fatal(err)
	}
	g.Add([]float64{0.5}, 10)
	m2, _, err := g.Predict([]float64{0.5})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m2-10) > 0.5 || math.Abs(m1-m2) < 1 {
		t.Errorf("posterior did not update after Add: %v -> %v", m1, m2)
	}
}

func TestGPDuplicatePointsJitter(t *testing.T) {
	// Duplicate inputs make K singular without noise/jitter; Fit must
	// still succeed.
	g := New(RBF{Variance: 1, LengthScales: []float64{0.5}}, 1e-12)
	for i := 0; i < 5; i++ {
		g.Add([]float64{0.5}, 1.0)
	}
	if err := g.Fit(); err != nil {
		t.Fatalf("Fit with duplicates: %v", err)
	}
	m, _, err := g.Predict([]float64{0.5})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m-1) > 0.01 {
		t.Errorf("mean at duplicated point = %v", m)
	}
}

func TestGPNoiseSmoothing(t *testing.T) {
	// With large observation noise the GP must not chase noisy targets.
	rng := rand.New(rand.NewSource(1))
	g := New(RBF{Variance: 1, LengthScales: []float64{0.4}}, 0.5)
	for i := 0; i < 40; i++ {
		x := float64(i) / 39
		g.Add([]float64{x}, 2+rng.NormFloat64()*0.7)
	}
	m, _, err := g.Predict([]float64{0.5})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m-2) > 0.5 {
		t.Errorf("noisy mean = %v, want ~2", m)
	}
}

func TestUCBExceedsMean(t *testing.T) {
	g := New(RBF{Variance: 1, LengthScales: []float64{0.3}}, 0.01)
	g.Add([]float64{0}, 1)
	g.Add([]float64{1}, 2)
	m, _, _ := g.Predict([]float64{0.5})
	u, err := g.UCB([]float64{0.5}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if u < m {
		t.Errorf("UCB %v below mean %v", u, m)
	}
	u0, _ := g.UCB([]float64{0.5}, 0)
	if math.Abs(u0-m) > 1e-12 {
		t.Errorf("UCB with beta=0 = %v, want mean %v", u0, m)
	}
}

func TestUCBBetaGrows(t *testing.T) {
	b1 := UCBBeta(1, 100)
	b10 := UCBBeta(10, 100)
	if b10 <= b1 {
		t.Errorf("beta(10) = %v <= beta(1) = %v", b10, b1)
	}
	if UCBBeta(0, 0) < 0 {
		t.Error("beta must be nonnegative")
	}
}

func TestLogMarginalLikelihoodPrefersTrueScale(t *testing.T) {
	// Data drawn from a smooth function: a reasonable length scale must
	// beat an absurdly small one.
	xs := make([][]float64, 0, 20)
	ys := make([]float64, 0, 20)
	for i := 0; i < 20; i++ {
		x := float64(i) / 19
		xs = append(xs, []float64{x})
		ys = append(ys, math.Sin(2*math.Pi*x))
	}
	lml := func(scale float64) float64 {
		g := New(RBF{Variance: 1, LengthScales: []float64{scale}}, 0.01)
		for i := range xs {
			g.Add(xs[i], ys[i])
		}
		v, err := g.LogMarginalLikelihood()
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	if lml(0.2) <= lml(0.001) {
		t.Error("LML prefers degenerate tiny length scale")
	}
}

func TestFitHyperparams(t *testing.T) {
	xs := make([][]float64, 0, 25)
	ys := make([]float64, 0, 25)
	for i := 0; i < 25; i++ {
		x := float64(i) / 24
		xs = append(xs, []float64{x})
		ys = append(ys, math.Sin(2*math.Pi*x))
	}
	g, err := FitHyperparams(xs, ys, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := g.Predict([]float64{0.25})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m-1) > 0.3 {
		t.Errorf("tuned GP mean at peak = %v, want ~1", m)
	}
	if _, err := FitHyperparams(nil, nil, 0.01); err == nil {
		t.Error("FitHyperparams with no data succeeded")
	}
}

func TestNewPanicsOnBadNoise(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with zero noise did not panic")
		}
	}()
	New(RBF{Variance: 1, LengthScales: []float64{1}}, 0)
}

func TestKernelDimMismatchPanics(t *testing.T) {
	k := RBF{Variance: 1, LengthScales: []float64{1}}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on dimension mismatch")
		}
	}()
	k.Eval([]float64{1, 2}, []float64{1, 2})
}

func TestUCBUnfittedErrors(t *testing.T) {
	g := New(RBF{Variance: 1, LengthScales: []float64{1}}, 0.01)
	if _, err := g.UCB([]float64{0}, 1); err == nil {
		t.Error("UCB with no data succeeded")
	}
	if _, err := g.LogMarginalLikelihood(); err == nil {
		t.Error("LML with no data succeeded")
	}
}

func TestUCBBetaClampsNonPositive(t *testing.T) {
	// Tiny candidate sets at t=1 can push the log argument below 1; beta
	// must clamp at 0 rather than NaN.
	got := UCBBeta(1, 1)
	if math.IsNaN(got) || got < 0 {
		t.Errorf("UCBBeta(1,1) = %v", got)
	}
}

// useProcs sets GOMAXPROCS, which is FitHyperparams' worker count, to n
// until the test ends.
func useProcs(t *testing.T, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestFitHyperparamsWorkerCountIndependent: the grid search returns the
// same kernel on one processor and on four, whatever order the cells
// finish in. In the tied data set the points lie 100 apart, so every
// kernel entry between two of them underflows to 0 at each grid scale
// and a variance's log marginal likelihood is the same at all four
// scales: the argmax must keep the first, 0.1.
func TestFitHyperparamsWorkerCountIndependent(t *testing.T) {
	var smoothX, tiedX [][]float64
	var smoothY, tiedY []float64
	for i := 0; i < 25; i++ {
		x := float64(i) / 24
		smoothX = append(smoothX, []float64{x, 1 - x*x})
		smoothY = append(smoothY, math.Sin(2*math.Pi*x))
	}
	for i := 0; i < 64; i++ {
		tiedX = append(tiedX, []float64{100 * float64(i)})
		tiedY = append(tiedY, float64(i%3))
	}
	for _, c := range []struct {
		name string
		xs   [][]float64
		ys   []float64
	}{{"smooth", smoothX, smoothY}, {"tied", tiedX, tiedY}} {
		useProcs(t, 1)
		g, err := FitHyperparams(c.xs, c.ys, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		want := g.kernel
		if c.name == "tied" && want.LengthScales[0] != 0.1 {
			t.Errorf("tied: length scale %v, want the first of the tied cells, 0.1", want.LengthScales[0])
		}
		useProcs(t, 4)
		for rep := 0; rep < 100; rep++ {
			g, err := FitHyperparams(c.xs, c.ys, 0.01)
			if err != nil {
				t.Fatal(err)
			}
			if got := g.kernel; !reflect.DeepEqual(got, want) {
				t.Fatalf("%s, GOMAXPROCS=4, repeat %d: %+v, want %+v as on one processor", c.name, rep, got, want)
			}
		}
	}
}
