// Package stats provides the descriptive statistics used by the far-memory
// evaluation harness: percentiles, empirical CDFs, and the quartile/violin
// summaries the paper plots for per-machine and per-job distributions.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using linear
// interpolation between closest ranks. NaN samples are ignored — a NaN is
// not a rank, and letting it participate in sorting would silently shift
// every percentile. It returns NaN when no non-NaN samples remain. The
// input is not modified.
//
// It reads two ranks, so it selects them instead of sorting: the value
// equals what percentileSorted reads off a full sort (up to the sign of a
// zero result, which an unstable sort does not fix either).
func Percentile(xs []float64, p float64) float64 {
	if p < 0 || p > 100 {
		panic(fmt.Sprintf("stats: percentile %v out of range [0,100]", p))
	}
	vs := dropNaN(xs)
	if len(vs) == 0 {
		return math.NaN()
	}
	lo, hi, frac := rankOf(len(vs), p)
	selectRank(vs, lo)
	if lo == hi {
		return vs[lo]
	}
	// Everything after rank lo is at least vs[lo], so the value a sort
	// puts at hi = lo+1 is the least of them.
	return vs[lo]*(1-frac) + Min(vs[hi:])*frac
}

// rankOf locates the p-th percentile of n sorted samples: frac of the way
// from rank lo to rank hi, which are equal when it falls on a sample.
func rankOf(n int, p float64) (lo, hi int, frac float64) {
	rank := p / 100 * float64(n-1)
	lo, hi = int(math.Floor(rank)), int(math.Ceil(rank))
	return lo, hi, rank - float64(lo)
}

// selectRank reorders the NaN-free xs in place so that xs[k] holds the
// value a sort would put there, no element before it is greater and no
// element after it is smaller (Hoare's selection with Wirth's partition).
func selectRank(xs []float64, k int) {
	lo, hi := 0, len(xs)-1
	for lo < hi {
		pivot := xs[k]
		i, j := lo, hi
		for i <= j {
			for xs[i] < pivot {
				i++
			}
			for pivot < xs[j] {
				j--
			}
			if i <= j {
				xs[i], xs[j] = xs[j], xs[i]
				i++
				j--
			}
		}
		if j < k {
			lo = i
		}
		if k < i {
			hi = j
		}
	}
}

// PercentileSorted is like Percentile but assumes xs is already sorted
// ascending and NaN-free, avoiding a copy. It returns NaN for an empty
// input.
func PercentileSorted(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	if p < 0 || p > 100 {
		panic(fmt.Sprintf("stats: percentile %v out of range [0,100]", p))
	}
	return percentileSorted(xs, p)
}

// dropNaN copies xs without its NaN elements (infinities are kept: they
// order correctly and carry information).
func dropNaN(xs []float64) []float64 {
	out := make([]float64, 0, len(xs))
	for _, x := range xs {
		if !math.IsNaN(x) {
			out = append(out, x)
		}
	}
	return out
}

func percentileSorted(sorted []float64, p float64) float64 {
	lo, hi, frac := rankOf(len(sorted), p)
	if lo == hi {
		return sorted[lo]
	}
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Mean returns the arithmetic mean of xs, or NaN for an empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Stddev returns the sample standard deviation of xs, or NaN when fewer
// than two values are provided.
func Stddev(xs []float64) float64 {
	if len(xs) < 2 {
		return math.NaN()
	}
	m := Mean(xs)
	ss := 0.0
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)-1))
}

// Min returns the minimum of xs, or NaN for an empty input.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs, or NaN for an empty input.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Summary is the five-number quartile summary with 1.5-IQR whiskers, the
// per-cluster statistic Figure 2 and Figure 6 of the paper plot as
// box-and-whisker overlays on violins.
type Summary struct {
	N          int
	Mean       float64
	Median     float64
	Q1, Q3     float64
	WhiskerLo  float64 // Q1 - 1.5*IQR, clamped to the observed minimum
	WhiskerHi  float64 // Q3 + 1.5*IQR, clamped to the observed maximum
	Min, Max   float64
	P98, Stdev float64
}

// Summarize computes a Summary of xs. NaN samples are ignored (see
// Percentile); it returns a zero Summary when no non-NaN samples remain.
func Summarize(xs []float64) Summary {
	sorted := dropNaN(xs)
	if len(sorted) == 0 {
		return Summary{}
	}
	sort.Float64s(sorted)
	s := Summary{
		N:      len(sorted),
		Mean:   Mean(sorted),
		Median: percentileSorted(sorted, 50),
		Q1:     percentileSorted(sorted, 25),
		Q3:     percentileSorted(sorted, 75),
		Min:    sorted[0],
		Max:    sorted[len(sorted)-1],
		P98:    percentileSorted(sorted, 98),
	}
	if len(sorted) >= 2 {
		s.Stdev = Stddev(sorted)
	}
	iqr := s.Q3 - s.Q1
	s.WhiskerLo = math.Max(s.Min, s.Q1-1.5*iqr)
	s.WhiskerHi = math.Min(s.Max, s.Q3+1.5*iqr)
	return s
}

// String renders the summary in a compact single-line form.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g median=%.4g q1=%.4g q3=%.4g whiskers=[%.4g,%.4g] p98=%.4g",
		s.N, s.Mean, s.Median, s.Q1, s.Q3, s.WhiskerLo, s.WhiskerHi, s.P98)
}

// CDF is an empirical cumulative distribution function.
type CDF struct {
	sorted []float64
}

// NewCDF builds an empirical CDF over xs. The input is copied; NaN
// samples are ignored (see Percentile).
func NewCDF(xs []float64) *CDF {
	sorted := dropNaN(xs)
	sort.Float64s(sorted)
	return &CDF{sorted: sorted}
}

// Points returns up to n evenly spaced (value, cumulative fraction) points
// suitable for plotting the CDF curve.
func (c *CDF) Points(n int) []Point {
	if len(c.sorted) == 0 || n <= 0 {
		return nil
	}
	if n > len(c.sorted) {
		n = len(c.sorted)
	}
	pts := make([]Point, 0, n)
	for i := 0; i < n; i++ {
		idx := i * (len(c.sorted) - 1) / max(1, n-1)
		pts = append(pts, Point{
			X: c.sorted[idx],
			Y: float64(idx+1) / float64(len(c.sorted)),
		})
	}
	return pts
}

// Point is a single (x, y) sample of a curve.
type Point struct{ X, Y float64 }
