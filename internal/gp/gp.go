// Package gp implements Gaussian-process regression and the GP-Bandit
// (GP-UCB) acquisition the paper's autotuner uses for black-box
// optimization of control-plane parameters (§5.3).
//
// The implementation is self-contained: an ARD RBF kernel, exact GP
// posterior via Cholesky factorization (internal/linalg), log marginal
// likelihood for hyperparameter selection, and an upper-confidence-bound
// acquisition rule with a no-regret flavour following Srinivas et al.
package gp

import (
	"errors"
	"fmt"
	"math"

	"sdfm/internal/linalg"
	"sdfm/internal/par"
)

// RBF is the squared-exponential kernel with per-dimension (ARD) length
// scales: k(x,y) = σ² · exp(-½ Σ ((x_i-y_i)/l_i)²).
type RBF struct {
	Variance     float64
	LengthScales []float64
}

// Eval returns the covariance k(x, y).
func (k RBF) Eval(x, y []float64) float64 {
	if len(x) != len(y) || len(x) != len(k.LengthScales) {
		panic(fmt.Sprintf("gp: RBF dimension mismatch %d/%d/%d", len(x), len(y), len(k.LengthScales)))
	}
	s := 0.0
	for i := range x {
		d := (x[i] - y[i]) / k.LengthScales[i]
		s += d * d
	}
	return k.Variance * math.Exp(-0.5*s)
}

// ErrNoData is returned when predicting from an unfitted GP.
var ErrNoData = errors.New("gp: no observations")

// GP is an exact Gaussian-process regressor. Construct with New, add
// observations, then Fit before Predict.
type GP struct {
	kernel RBF
	noise  float64 // observation noise variance

	xs [][]float64
	ys []float64

	meanY float64 // ys are centred internally
	chol  *linalg.Matrix
	alpha []float64
	fresh bool
}

// New creates a GP with the given kernel and observation noise variance.
func New(kernel RBF, noiseVar float64) *GP {
	if noiseVar <= 0 {
		panic(fmt.Sprintf("gp: non-positive noise variance %v", noiseVar))
	}
	return &GP{kernel: kernel, noise: noiseVar}
}

// Add appends an observation. The input is copied.
func (g *GP) Add(x []float64, y float64) {
	g.xs = append(g.xs, append([]float64(nil), x...))
	g.ys = append(g.ys, y)
	g.fresh = false
}

// Fit factorizes the kernel matrix. It must be called after Add and before
// Predict; calling it repeatedly is cheapest-effort idempotent.
func (g *GP) Fit() error {
	n := len(g.xs)
	if n == 0 {
		return ErrNoData
	}
	g.meanY = 0
	for _, y := range g.ys {
		g.meanY += y
	}
	g.meanY /= float64(n)

	k := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			v := g.kernel.Eval(g.xs[i], g.xs[j])
			k.Set(i, j, v)
			k.Set(j, i, v)
		}
		k.Set(i, i, k.At(i, i)+g.noise)
	}
	// Retry with growing jitter if the kernel matrix is numerically
	// singular (duplicate points with tiny noise).
	jitter := 0.0
	for attempt := 0; attempt < 6; attempt++ {
		kj := k
		if jitter > 0 {
			kj = k.Clone()
			for i := 0; i < n; i++ {
				kj.Set(i, i, kj.At(i, i)+jitter)
			}
		}
		chol, err := linalg.Cholesky(kj)
		if err == nil {
			g.chol = chol
			centred := make([]float64, n)
			for i, y := range g.ys {
				centred[i] = y - g.meanY
			}
			g.alpha = linalg.CholeskySolve(chol, centred)
			g.fresh = true
			return nil
		}
		if jitter == 0 {
			jitter = 1e-10
		} else {
			jitter *= 100
		}
	}
	return fmt.Errorf("gp: kernel matrix not positive definite even with jitter")
}

// Predict returns the posterior mean and variance at x.
func (g *GP) Predict(x []float64) (mean, variance float64, err error) {
	if !g.fresh {
		if err := g.Fit(); err != nil {
			return 0, 0, err
		}
	}
	n := len(g.xs)
	kstar := make([]float64, n)
	for i, xi := range g.xs {
		kstar[i] = g.kernel.Eval(xi, x)
	}
	mean = g.meanY + linalg.Dot(kstar, g.alpha)
	v := linalg.SolveLower(g.chol, kstar)
	variance = g.kernel.Eval(x, x) - linalg.Dot(v, v)
	if variance < 0 {
		variance = 0
	}
	return mean, variance, nil
}

// LogMarginalLikelihood returns log p(y|X) under the current kernel, the
// quantity maximized during hyperparameter selection.
func (g *GP) LogMarginalLikelihood() (float64, error) {
	if !g.fresh {
		if err := g.Fit(); err != nil {
			return 0, err
		}
	}
	n := float64(len(g.xs))
	centred := make([]float64, len(g.ys))
	for i, y := range g.ys {
		centred[i] = y - g.meanY
	}
	return -0.5*linalg.Dot(centred, g.alpha) -
		0.5*linalg.LogDetFromCholesky(g.chol) -
		0.5*n*math.Log(2*math.Pi), nil
}

// UCB returns the upper confidence bound mean + beta·std at x.
func (g *GP) UCB(x []float64, beta float64) (float64, error) {
	m, v, err := g.Predict(x)
	if err != nil {
		return 0, err
	}
	return m + beta*math.Sqrt(v), nil
}

// UCBBeta returns the exploration coefficient for round t over a candidate
// set of size |D|, following the GP-UCB schedule β_t = 2 log(|D| t² π²/6δ)
// with δ = 0.1 (Srinivas et al.).
func UCBBeta(t, candidates int) float64 {
	if t < 1 {
		t = 1
	}
	if candidates < 1 {
		candidates = 1
	}
	const delta = 0.1
	v := 2 * math.Log(float64(candidates)*float64(t*t)*math.Pi*math.Pi/(6*delta))
	if v < 0 {
		return 0
	}
	return math.Sqrt(v)
}

// FitHyperparams grid-searches RBF hyperparameters (shared across
// dimensions scaled per-dimension) by log marginal likelihood, returning
// the best kernel found for the observations (xs[i], ys[i]). Inputs should
// be normalized to [0, 1].
func FitHyperparams(xs [][]float64, ys []float64, noiseVar float64) (RBF, error) {
	if len(xs) == 0 {
		return RBF{}, ErrNoData
	}
	dims := len(xs[0])
	variances := []float64{0.25, 1, 4}
	scales := []float64{0.1, 0.2, 0.4, 0.8}
	var cells []RBF
	for _, v := range variances {
		for _, s := range scales {
			ls := make([]float64, dims)
			for i := range ls {
				ls[i] = s
			}
			cells = append(cells, RBF{Variance: v, LengthScales: ls})
		}
	}
	// Each grid cell fits its own GP, so the cells are independent; they
	// run on par's workers and the argmax reduction below walks them in
	// grid order with strict >, reproducing the serial search's choice
	// (ties included) exactly; a cell whose fit fails scores -Inf.
	lmls := make([]float64, len(cells))
	_ = par.For(len(cells), par.Workers(), func(_, c int) error { // fn never fails
		g := New(cells[c], noiseVar)
		for i := range xs {
			g.Add(xs[i], ys[i])
		}
		lml, err := g.LogMarginalLikelihood()
		if err != nil {
			lml = math.Inf(-1)
		}
		lmls[c] = lml
		return nil
	})
	bestK, bestLML := RBF{}, math.Inf(-1)
	for c := range cells {
		if lmls[c] > bestLML {
			bestK, bestLML = cells[c], lmls[c]
		}
	}
	if bestK.LengthScales == nil {
		return RBF{}, fmt.Errorf("gp: no hyperparameter configuration fit the data")
	}
	return bestK, nil
}
