package stats

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func almost(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestPercentileBasics(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct {
		p, want float64
	}{
		{0, 1}, {25, 2}, {50, 3}, {75, 4}, {100, 5}, {10, 1.4},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); !almost(got, c.want, 1e-12) {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{5, 1, 3}
	Percentile(xs, 50)
	if xs[0] != 5 || xs[1] != 1 || xs[2] != 3 {
		t.Errorf("Percentile mutated input: %v", xs)
	}
}

func TestPercentileEmpty(t *testing.T) {
	if got := Percentile(nil, 50); !math.IsNaN(got) {
		t.Errorf("Percentile(nil) = %v, want NaN", got)
	}
}

func TestPercentileSingle(t *testing.T) {
	if got := Percentile([]float64{7}, 98); got != 7 {
		t.Errorf("Percentile of single element = %v, want 7", got)
	}
}

func TestPercentileOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Percentile(101) did not panic")
		}
	}()
	Percentile([]float64{1}, 101)
}

func TestPercentileMonotone(t *testing.T) {
	// Property: percentile is monotone nondecreasing in p.
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 7 {
			v := Percentile(xs, p)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMeanStddev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); !almost(got, 5, 1e-12) {
		t.Errorf("Mean = %v, want 5", got)
	}
	// Sample stddev of this classic set is sqrt(32/7).
	if got := Stddev(xs); !almost(got, math.Sqrt(32.0/7.0), 1e-12) {
		t.Errorf("Stddev = %v", got)
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 9, 2}
	if Min(xs) != -1 || Max(xs) != 9 {
		t.Errorf("Min/Max = %v/%v, want -1/9", Min(xs), Max(xs))
	}
	if !math.IsNaN(Min(nil)) || !math.IsNaN(Max(nil)) {
		t.Error("Min/Max of empty input should be NaN")
	}
}

func TestSummarize(t *testing.T) {
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = float64(i) // 0..100
	}
	s := Summarize(xs)
	if s.N != 101 || s.Median != 50 || s.Q1 != 25 || s.Q3 != 75 {
		t.Errorf("Summary = %+v", s)
	}
	if s.Min != 0 || s.Max != 100 {
		t.Errorf("Min/Max = %v/%v", s.Min, s.Max)
	}
	if s.WhiskerLo != 0 || s.WhiskerHi != 100 {
		// IQR=50, 1.5*IQR=75 -> whiskers clamp to observed min/max.
		t.Errorf("whiskers = [%v, %v]", s.WhiskerLo, s.WhiskerHi)
	}
	if !almost(s.P98, 98, 1e-9) {
		t.Errorf("P98 = %v", s.P98)
	}
}

func TestSummarizeWhiskerClamp(t *testing.T) {
	// One extreme outlier: whisker must stop at 1.5 IQR, not at the outlier.
	xs := []float64{1, 2, 3, 4, 1000}
	s := Summarize(xs)
	if s.WhiskerHi >= 1000 {
		t.Errorf("WhiskerHi = %v, should exclude outlier", s.WhiskerHi)
	}
	if s.Max != 1000 {
		t.Errorf("Max = %v, want 1000", s.Max)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 {
		t.Errorf("Summarize(nil).N = %d", s.N)
	}
}

func TestSummaryString(t *testing.T) {
	s := Summarize([]float64{1, 2, 3})
	if s.String() == "" {
		t.Error("empty String()")
	}
}

func TestCDFPoints(t *testing.T) {
	c := NewCDF([]float64{1, 2, 3, 4, 5})
	pts := c.Points(3)
	if len(pts) != 3 {
		t.Fatalf("Points(3) returned %d points", len(pts))
	}
	if pts[0].X != 1 || pts[2].X != 5 {
		t.Errorf("endpoints = %v, %v", pts[0], pts[2])
	}
	if pts[2].Y != 1 {
		t.Errorf("last Y = %v, want 1", pts[2].Y)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Y < pts[i-1].Y || pts[i].X < pts[i-1].X {
			t.Errorf("points not monotone: %v", pts)
		}
	}
	// NaN samples are dropped, as Percentile drops them: no NaN X, and
	// the fractions count only the real samples.
	nan := math.NaN()
	withNaN := NewCDF([]float64{nan, 1, 2, nan, 3, 4, 5}).Points(3)
	if !slices.Equal(withNaN, pts) {
		t.Errorf("Points(3) with NaN samples = %v, want %v", withNaN, pts)
	}
}

func TestCDFPointsMoreThanSamples(t *testing.T) {
	c := NewCDF([]float64{1, 2})
	if got := len(c.Points(10)); got != 2 {
		t.Errorf("Points(10) over 2 samples returned %d", got)
	}
}

func TestCDFEmpty(t *testing.T) {
	if NewCDF(nil).Points(5) != nil {
		t.Error("Points on empty CDF should be nil")
	}
}

func TestCDFSingleSample(t *testing.T) {
	pts := NewCDF([]float64{42}).Points(5)
	if len(pts) != 1 || pts[0] != (Point{X: 42, Y: 1}) {
		t.Errorf("Points(5) = %v, want [{42 1}]", pts)
	}
}

func TestCDFPointsDegenerate(t *testing.T) {
	c := NewCDF([]float64{1, 2, 3})
	if c.Points(0) != nil {
		t.Error("Points(0) should be nil")
	}
	if c.Points(-1) != nil {
		t.Error("Points(-1) should be nil")
	}
	if pts := c.Points(1); len(pts) != 1 || pts[0].X != 1 {
		t.Errorf("Points(1) = %v, want the first sample only", pts)
	}
}

func TestPercentileSortedAgrees(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	xs := make([]float64, 50)
	for i := range xs {
		xs[i] = rng.Float64() * 100
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	for p := 0.0; p <= 100; p += 13 {
		if a, b := Percentile(xs, p), PercentileSorted(sorted, p); !almost(a, b, 1e-12) {
			t.Errorf("p=%v: %v != %v", p, a, b)
		}
	}
}

func TestPercentileIgnoresNaN(t *testing.T) {
	nan := math.NaN()
	xs := []float64{nan, 1, 2, nan, 3, 4, nan}
	// NaN samples must neither shift ranks nor poison interpolation.
	if got := Percentile(xs, 50); got != 2.5 {
		t.Errorf("Percentile(50) with NaNs = %v, want 2.5", got)
	}
	if got := Percentile(xs, 100); got != 4 {
		t.Errorf("Percentile(100) with NaNs = %v, want 4", got)
	}
	if got := Percentile([]float64{nan, nan}, 50); !math.IsNaN(got) {
		t.Errorf("Percentile of all-NaN = %v, want NaN", got)
	}
	// Infinities are legitimate ordered values and stay in.
	if got := Percentile([]float64{math.Inf(1), 1, 2}, 100); !math.IsInf(got, 1) {
		t.Errorf("Percentile(100) with +Inf = %v, want +Inf", got)
	}
}

func TestSummarizeIgnoresNaN(t *testing.T) {
	nan := math.NaN()
	s := Summarize([]float64{nan, 1, 2, 3, nan})
	if s.N != 3 {
		t.Errorf("N = %d, want 3", s.N)
	}
	if s.Median != 2 || s.Min != 1 || s.Max != 3 {
		t.Errorf("summary = %+v, want median 2 min 1 max 3", s)
	}
	if math.IsNaN(s.Mean) {
		t.Error("Mean poisoned by NaN input")
	}
	if s := Summarize([]float64{nan, nan}); s.N != 0 {
		t.Errorf("all-NaN Summarize N = %d, want 0", s.N)
	}
}
