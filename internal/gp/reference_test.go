package gp

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"sdfm/internal/linalg"
)

// This file keeps the scoring and the grid search as they were before
// Scorer and the shared exp matrices: UCB through the three-pass Predict
// (k*, its dot with α, the forward solve and k(x, x) by Eval, each
// allocated per candidate) and FitHyperparams fitting every cell from
// scratch. The optimized paths must return the same values bit for bit.

// referencePredict is Predict as it was: separate passes over allocated
// vectors through linalg.
func referencePredict(g *GP, x []float64) (mean, variance float64, err error) {
	if !g.fresh {
		if err := g.Fit(); err != nil {
			return 0, 0, err
		}
	}
	kstar := make([]float64, len(g.xs))
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

// referenceUCB is the upper confidence bound through referencePredict.
func referenceUCB(g *GP, x []float64, beta float64) (float64, error) {
	m, v, err := referencePredict(g, x)
	if err != nil {
		return 0, err
	}
	return m + beta*math.Sqrt(v), nil
}

// referenceFitHyperparams grid-searches as FitHyperparams did: one GP per
// cell, built with New and Add and scored by LogMarginalLikelihood, the
// argmax in grid order with strict >; it returns the winning kernel.
func referenceFitHyperparams(xs [][]float64, ys []float64, noiseVar float64) (RBF, error) {
	if len(xs) == 0 {
		return RBF{}, ErrNoData
	}
	dims := len(xs[0])
	bestK, bestLML := RBF{}, math.Inf(-1)
	for _, v := range []float64{0.25, 1, 4} {
		for _, s := range []float64{0.1, 0.2, 0.4, 0.8} {
			ls := make([]float64, dims)
			for i := range ls {
				ls[i] = s
			}
			k := RBF{Variance: v, LengthScales: ls}
			g := New(k, noiseVar)
			for i := range xs {
				g.Add(xs[i], ys[i])
			}
			lml, err := g.LogMarginalLikelihood()
			if err != nil {
				lml = math.Inf(-1)
			}
			if lml > bestLML {
				bestK, bestLML = k, lml
			}
		}
	}
	if bestK.LengthScales == nil {
		return RBF{}, ErrNoData
	}
	return bestK, nil
}

// randomObservations draws n points in the unit square, a quarter of them
// (when dup) copies of an earlier point, with scores on a smooth surface
// plus noise.
func randomObservations(rng *rand.Rand, n int, dup bool) ([][]float64, []float64) {
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		if dup && i > 0 && rng.Intn(4) == 0 {
			xs[i] = append([]float64(nil), xs[rng.Intn(i)]...)
		} else {
			xs[i] = []float64{rng.Float64(), rng.Float64()}
		}
		ys[i] = math.Sin(3*xs[i][0]) - xs[i][1]*xs[i][1] + 0.1*rng.NormFloat64()
	}
	return xs, ys
}

// needsJitter reports whether g's kernel matrix, noise included, fails a
// plain Cholesky factorization, so that Fit had to add jitter.
func needsJitter(g *GP) bool {
	n := len(g.xs)
	k := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			v := g.kernel.Eval(g.xs[i], g.xs[j])
			k.Set(i, j, v)
			k.Set(j, i, v)
		}
		k.Set(i, i, k.At(i, i)+g.noise)
	}
	_, err := linalg.Cholesky(k)
	return err != nil
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestUCBMatchesPredict: on random GPs of 1 to 25 observations — with
// duplicate points and tiny noise, so that some factorizations need
// jitter — one reused Scorer and GP.UCB return exactly the three-pass
// Predict path's bound, and Predict its mean and variance, at random
// candidates, the training points themselves and points outside the unit
// square.
func TestUCBMatchesPredict(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	var s Scorer
	jittered := 0
	for trial := 0; trial < 400; trial++ {
		n := 1 + trial%25
		xs, ys := randomObservations(rng, n, trial%2 == 1)
		noise := []float64{1e-4, 1e-2, 1e-17}[trial%3]
		ls := []float64{0.05 + rng.Float64(), 0.05 + rng.Float64()}
		g := New(RBF{Variance: []float64{0.25, 1, 4}[trial%3], LengthScales: ls}, noise)
		for i := range xs {
			g.Add(xs[i], ys[i])
		}
		if err := g.Fit(); err != nil {
			continue // no jitter rescued it; the scorer refuses unfitted GPs
		}
		if needsJitter(g) {
			jittered++
		}
		beta := UCBBeta(1+trial%15, 512)
		cands := [][]float64{{rng.Float64(), rng.Float64()}, xs[rng.Intn(n)], {-3 * rng.Float64(), 2 + rng.Float64()}}
		for _, x := range cands {
			want, err := referenceUCB(g, x, beta)
			if err != nil {
				t.Fatal(err)
			}
			got, err := s.UCB(g, x, beta)
			if err != nil {
				t.Fatal(err)
			}
			viaGP, err := g.UCB(x, beta)
			if err != nil {
				t.Fatal(err)
			}
			if !sameBits(got, want) || !sameBits(viaGP, want) {
				t.Fatalf("trial %d (n=%d) at %v: Scorer.UCB %v, GP.UCB %v, want %v", trial, n, x, got, viaGP, want)
			}
			wm, wv, _ := referencePredict(g, x)
			if m, v, err := g.Predict(x); err != nil || !sameBits(m, wm) || !sameBits(v, wv) {
				t.Fatalf("trial %d (n=%d) at %v: Predict = %v, %v, %v; want %v, %v", trial, n, x, m, v, err, wm, wv)
			}
		}
	}
	if jittered == 0 {
		t.Fatal("no GP needed jitter: the jitter path went untested")
	}
}

// TestScorerRefusesUnfittedGP: a scorer reads a GP and never fits one, so
// that any number of them may share it.
func TestScorerRefusesUnfittedGP(t *testing.T) {
	g := New(RBF{Variance: 1, LengthScales: []float64{0.3}}, 0.01)
	g.Add([]float64{0.5}, 1)
	var s Scorer
	if _, err := s.UCB(g, []float64{0.5}, 1); err == nil {
		t.Fatal("Scorer.UCB scored a GP that was never fitted")
	}
}

// TestScorerAllocatesNothing: once its buffer fits the GP, scoring a
// candidate allocates nothing.
func TestScorerAllocatesNothing(t *testing.T) {
	xs, ys := randomObservations(rand.New(rand.NewSource(1)), 20, false)
	g := New(RBF{Variance: 1, LengthScales: []float64{0.3, 0.3}}, 1e-4)
	for i := range xs {
		g.Add(xs[i], ys[i])
	}
	if err := g.Fit(); err != nil {
		t.Fatal(err)
	}
	var s Scorer
	x := []float64{0.4, 0.6}
	if _, err := s.UCB(g, x, 2); err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(100, func() { _, _ = s.UCB(g, x, 2) }); a != 0 {
		t.Fatalf("Scorer.UCB allocates %v times per candidate, want 0", a)
	}
}

// TestFitHyperparamsMatchesReference: the grid search with shared exp
// matrices returns the RBF the cell-by-cell search returns, on random
// sets with and without duplicate points and on sets where cells tie on
// log marginal likelihood and the first must be kept; the GP it returns
// is the one a fresh fit under that kernel builds, factor for factor.
func TestFitHyperparamsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	type set struct {
		xs [][]float64
		ys []float64
	}
	var sets []set
	for n := 1; n <= 25; n++ {
		xs, ys := randomObservations(rng, n, n%2 == 0)
		sets = append(sets, set{xs, ys})
	}
	// Points 100 apart: every off-diagonal kernel entry underflows to 0 at
	// each scale, so a variance's four scales tie.
	var tx [][]float64
	var ty []float64
	for i := 0; i < 16; i++ {
		tx = append(tx, []float64{100 * float64(i), -100 * float64(i)})
		ty = append(ty, float64(i%3))
	}
	sets = append(sets, set{tx, ty})
	ties := 0
	for i, c := range sets {
		for _, noise := range []float64{1e-4, 1e-17} {
			want, werr := referenceFitHyperparams(c.xs, c.ys, noise)
			best, err := FitHyperparams(c.xs, c.ys, noise)
			if (err != nil) != (werr != nil) {
				t.Fatalf("set %d, noise %g: FitHyperparams error %v, reference error %v", i, noise, err, werr)
			}
			if err != nil {
				continue
			}
			if !reflect.DeepEqual(best.kernel, want) {
				t.Fatalf("set %d, noise %g: FitHyperparams chose %+v, want %+v", i, noise, best.kernel, want)
			}
			if i == len(sets)-1 {
				ties++
				if want.LengthScales[0] != 0.1 {
					t.Fatalf("tied set: length scale %v, want the first tied cell's, 0.1", want.LengthScales[0])
				}
			}
			fresh := New(want, noise)
			for j := range c.xs {
				fresh.Add(c.xs[j], c.ys[j])
			}
			if err := fresh.Fit(); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(best.kernel, fresh.kernel) || !reflect.DeepEqual(best.xs, fresh.xs) ||
				!reflect.DeepEqual(best.ys, fresh.ys) || !sameBits(best.meanY, fresh.meanY) ||
				!reflect.DeepEqual(best.chol, fresh.chol) || !reflect.DeepEqual(best.alpha, fresh.alpha) || !best.fresh {
				t.Fatalf("set %d, noise %g: the chosen GP differs from a fresh fit under %+v", i, noise, want)
			}
		}
	}
	if ties == 0 {
		t.Fatal("the tied set was never scored")
	}
}

// FuzzUCBMatchesPredict: for any candidate, finite or not, and any GP the
// seed draws, Scorer.UCB returns the three-pass Predict path's bound bit
// for bit.
func FuzzUCBMatchesPredict(f *testing.F) {
	f.Add(int64(1), uint8(5), 0.3, 0.7, 2.0, true)
	f.Add(int64(2), uint8(24), 0.0, 1.0, 0.5, false)
	f.Add(int64(3), uint8(1), math.Inf(1), 0.5, 1.0, false)
	f.Add(int64(4), uint8(12), math.NaN(), -2.0, 3.0, true)
	f.Fuzz(func(t *testing.T, seed int64, n uint8, x0, x1, beta float64, dup bool) {
		rng := rand.New(rand.NewSource(seed))
		xs, ys := randomObservations(rng, 1+int(n)%25, dup)
		ls := []float64{0.05 + rng.Float64(), 0.05 + rng.Float64()}
		g := New(RBF{Variance: 0.25 + 4*rng.Float64(), LengthScales: ls}, []float64{1e-4, 1e-17}[seed&1])
		for i := range xs {
			g.Add(xs[i], ys[i])
		}
		if err := g.Fit(); err != nil {
			return
		}
		x := []float64{x0, x1}
		want, err := referenceUCB(g, x, beta)
		if err != nil {
			t.Fatal(err)
		}
		var s Scorer
		got, err := s.UCB(g, x, beta)
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(got, want) {
			t.Fatalf("Scorer.UCB at %v, beta %v = %v, want %v", x, beta, got, want)
		}
	})
}
