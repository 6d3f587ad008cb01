package stats

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// referencePercentile is Percentile as it was before it selected instead
// of sorting: drop NaN, sort the copy, interpolate between the two closest
// ranks. Percentile must return the same value for every input.
func referencePercentile(xs []float64, p float64) float64 {
	if p < 0 || p > 100 {
		panic(fmt.Sprintf("stats: percentile %v out of range [0,100]", p))
	}
	sorted := dropNaN(xs)
	if len(sorted) == 0 {
		return math.NaN()
	}
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// samePercentile is the oracle's equality: equal by ==, so +0 matches -0
// (neither implementation fixes the sign of a zero result), or both NaN.
func samePercentile(a, b float64) bool {
	return a == b || (math.IsNaN(a) && math.IsNaN(b))
}

// checkPercentile compares Percentile with the oracle on xs at p and
// checks that xs is left as it was.
func checkPercentile(t *testing.T, xs []float64, p float64) {
	t.Helper()
	before := slices.Clone(xs)
	got, want := Percentile(xs, p), referencePercentile(xs, p)
	if !samePercentile(got, want) {
		t.Fatalf("Percentile(%v, %v) = %v, sort-based reference %v", xs, p, got, want)
	}
	for i := range xs {
		if math.Float64bits(xs[i]) != math.Float64bits(before[i]) {
			t.Fatalf("Percentile(%v, %v) changed its input at %d (was %v)", xs, p, i, before[i])
		}
	}
}

// TestPercentileMatchesReference runs every size from 1 to 80 at the
// percentiles the repository reads, over inputs with many duplicates,
// over distinct values, and over sorted and reversed runs.
func TestPercentileMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	ps := []float64{0, 2, 25, 50, 75, 98, 100}
	for n := 1; n <= 80; n++ {
		dups := make([]float64, n)
		distinct := make([]float64, n)
		for i := range dups {
			dups[i] = float64(rng.Intn(5))
			distinct[i] = rng.NormFloat64()
		}
		ascending := slices.Clone(distinct)
		slices.Sort(ascending)
		descending := slices.Clone(ascending)
		slices.Reverse(descending)
		for _, xs := range [][]float64{dups, distinct, ascending, descending} {
			for _, p := range ps {
				checkPercentile(t, xs, p)
			}
		}
	}
}

// fuzzPalette holds the values a fuzz byte below len(fuzzPalette) stands
// for: the ones ordering gets wrong most easily.
var fuzzPalette = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
	1, -1, math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64,
}

// decodeSamples turns fuzz bytes into samples: a byte below
// len(fuzzPalette) is that palette value, any other a small multiple of
// 1/4, so duplicates are common.
func decodeSamples(data []byte) []float64 {
	xs := make([]float64, len(data))
	for i, b := range data {
		if int(b) < len(fuzzPalette) {
			xs[i] = fuzzPalette[b]
		} else {
			xs[i] = float64(int8(b)) / 4
		}
	}
	return xs
}

// FuzzPercentile checks Percentile against the sort-based reference on
// inputs with NaN, ±Inf, ±0 and duplicates, at p = pHundredths/100
// folded into [0, 100].
func FuzzPercentile(f *testing.F) {
	seed := func(pHundredths uint16, xs ...byte) { f.Add(xs, pHundredths) }
	seed(9800)                         // empty
	seed(5000, 0, 0, 0)                // all NaN
	seed(9800, 200)                    // one sample
	seed(5000, 3, 4, 3, 4)             // +0 and -0
	seed(5000, 1, 2)                   // +Inf and -Inf: NaN between them
	seed(9800, 1, 200, 1, 0, 2)        // infinities and NaN among values
	seed(2500, 40, 40, 40, 41, 40, 40) // duplicates
	seed(10000, 7, 8, 9, 5, 6)         // extremes
	seed(9800, 100, 90, 80, 70, 60, 50, 40, 30, 20, 19, 18, 17, 16, 15)
	f.Fuzz(func(t *testing.T, data []byte, pHundredths uint16) {
		if len(data) > 512 {
			data = data[:512]
		}
		p := float64(pHundredths%10001) / 100
		checkPercentile(t, decodeSamples(data), p)
	})
}
