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
	return k.Variance * math.Exp(-0.5*k.dist2(x, y))
}

// dist2 returns Σ ((x_i-y_i)/l_i)², the scaled squared distance Eval
// exponentiates; it depends on the length scales but not the variance.
func (k RBF) dist2(x, y []float64) float64 {
	if len(x) != len(y) || len(x) != len(k.LengthScales) {
		panic(fmt.Sprintf("gp: RBF dimension mismatch %d/%d/%d", len(x), len(y), len(k.LengthScales)))
	}
	s := 0.0
	for i := range x {
		d := (x[i] - y[i]) / k.LengthScales[i]
		s += d * d
	}
	return s
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
	k := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			v := g.kernel.Eval(g.xs[i], g.xs[j])
			k.Set(i, j, v)
			k.Set(j, i, v)
		}
		k.Set(i, i, k.At(i, i)+g.noise)
	}
	return g.factor(k)
}

// factor centres the observations and factorizes k, their kernel matrix
// with the noise on its diagonal. k is not modified.
func (g *GP) factor(k *linalg.Matrix) error {
	n := len(g.xs)
	g.meanY = 0
	for _, y := range g.ys {
		g.meanY += y
	}
	g.meanY /= float64(n)
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
	var s Scorer
	mean, variance = s.posterior(g, x)
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
	return g.logML(), nil
}

// logML is LogMarginalLikelihood of a fitted GP.
func (g *GP) logML() float64 {
	n := float64(len(g.xs))
	centred := make([]float64, len(g.ys))
	for i, y := range g.ys {
		centred[i] = y - g.meanY
	}
	return -0.5*linalg.Dot(centred, g.alpha) -
		0.5*linalg.LogDetFromCholesky(g.chol) -
		0.5*n*math.Log(2*math.Pi)
}

// UCB returns the upper confidence bound mean + beta·std at x.
func (g *GP) UCB(x []float64, beta float64) (float64, error) {
	m, v, err := g.Predict(x)
	if err != nil {
		return 0, err
	}
	return m + beta*math.Sqrt(v), nil
}

// errUnfitted is Scorer.UCB's error for a GP not fitted since its last Add.
var errUnfitted = errors.New("gp: scoring an unfitted GP; call Fit first")

// Scorer scores candidates against fitted GPs without allocating once its
// buffer has grown to the largest GP it has seen. A Scorer is used by one
// goroutine at a time; concurrent scorers of one GP each need their own.
type Scorer struct {
	v []float64 // the forward solve L·v = k*
}

// UCB returns what g.UCB returns at x. g must be fitted: UCB does not fit
// it, so that any number of scorers may read one GP at once.
func (s *Scorer) UCB(g *GP, x []float64, beta float64) (float64, error) {
	if !g.fresh {
		return 0, errUnfitted
	}
	m, v := s.posterior(g, x)
	return m + beta*math.Sqrt(v), nil
}

// posterior returns the fitted GP g's posterior mean and variance at x.
// One pass forms k*ᵢ = k(xᵢ, x), the mean's k*·α, the forward solve
// L·v = k* and v·v, each sum accumulating in index order as linalg's Dot
// and SolveLower do.
func (s *Scorer) posterior(g *GP, x []float64) (mean, variance float64) {
	n := len(g.xs)
	if cap(s.v) < n {
		s.v = make([]float64, n)
	}
	v, l := s.v[:n], g.chol.Data
	kAlpha, vv := 0.0, 0.0
	for i, xi := range g.xs {
		ki := g.kernel.Eval(xi, x)
		kAlpha += ki * g.alpha[i]
		row := l[i*n : i*n+i+1]
		sum := ki
		for j, lij := range row[:i] {
			sum -= lij * v[j]
		}
		v[i] = sum / row[i]
		vv += v[i] * v[i]
	}
	// The prior variance k(x, x) is σ²·e⁻⁰ = σ² exactly whenever x's
	// scaled distance to itself is 0, as it is for every finite x; only a
	// non-finite one (a NaN distance) needs Eval's exp.
	prior := g.kernel.Variance
	if d := g.kernel.dist2(x, x); d != 0 {
		prior = g.kernel.Eval(x, x)
	}
	variance = prior - vv
	if variance < 0 {
		variance = 0
	}
	return g.meanY + kAlpha, variance
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
// dimensions scaled per-dimension) by log marginal likelihood for the
// observations (xs[i], ys[i]) and returns the winning cell's GP, already
// fitted: the GP that New with the winning kernel holds after every
// observation is added and Fit is called, so a caller need not fit it
// again. Inputs should be normalized to [0, 1].
func FitHyperparams(xs [][]float64, ys []float64, noiseVar float64) (*GP, error) {
	if len(xs) == 0 {
		return nil, ErrNoData
	}
	n, dims := len(xs), len(xs[0])
	variances := []float64{0.25, 1, 4}
	scales := []float64{0.1, 0.2, 0.4, 0.8}
	// The cells share one copy of the observations, as if each had Added
	// them; only the winner outlives this call.
	own := make([][]float64, n)
	for i, x := range xs {
		own[i] = append([]float64(nil), x...)
	}
	ownY := append([]float64(nil), ys...)
	// lss[s] is every dimension's length scale scales[s], and exps[s]
	// holds exp(-½·dist2(xᵢ, xⱼ)) under it for every j ≤ i, row by row:
	// the exp in RBF.Eval does not depend on the variance, so the three
	// cells of one scale multiply the same matrix by their variance — the
	// product Eval forms — and the grid takes n(n+1)/2 exps per scale
	// instead of per cell.
	lss := make([][]float64, len(scales))
	exps := make([][]float64, len(scales))
	_ = par.For(len(scales), par.Workers(), func(_, s int) error { // fn never fails
		k := RBF{LengthScales: make([]float64, dims)}
		for d := range k.LengthScales {
			k.LengthScales[d] = scales[s]
		}
		e := make([]float64, 0, n*(n+1)/2)
		for i := range own {
			for j := 0; j <= i; j++ {
				e = append(e, math.Exp(-0.5*k.dist2(own[i], own[j])))
			}
		}
		lss[s], exps[s] = k.LengthScales, e
		return nil
	})
	// Each grid cell fits its own GP, so the cells are independent; they
	// run on par's workers and the argmax reduction below walks them in
	// grid order with strict >, reproducing the serial search's choice
	// (ties included) exactly; a cell whose fit fails scores -Inf.
	cells := make([]*GP, len(variances)*len(scales))
	lmls := make([]float64, len(cells))
	_ = par.For(len(cells), par.Workers(), func(_, c int) error { // fn never fails
		v, s := variances[c/len(scales)], c%len(scales)
		g := New(RBF{Variance: v, LengthScales: lss[s]}, noiseVar)
		g.xs, g.ys = own, ownY
		k := linalg.NewMatrix(n, n)
		e := exps[s]
		for i, ij := 0, 0; i < n; i++ {
			for j := 0; j <= i; j++ {
				kv := v * e[ij]
				k.Set(i, j, kv)
				k.Set(j, i, kv)
				ij++
			}
			k.Set(i, i, k.At(i, i)+noiseVar)
		}
		lmls[c] = math.Inf(-1)
		if g.factor(k) == nil {
			lmls[c] = g.logML()
		}
		cells[c] = g
		return nil
	})
	var best *GP
	bestLML := math.Inf(-1)
	for c, g := range cells {
		if lmls[c] > bestLML {
			best, bestLML = g, lmls[c]
		}
	}
	if best == nil {
		return nil, fmt.Errorf("gp: no hyperparameter configuration fit the data")
	}
	return best, nil
}
