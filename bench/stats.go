package main

import (
	"math"
	"sort"
	"time"
)

// The reductions below are the benchmark's own on purpose: borrowing
// sdfm/internal/stats would make the way numbers are reduced differ between
// the two commits of a comparison.

// quantile returns the q-quantile (0..1) of sorted by linear interpolation
// between order statistics. An empty slice yields 0.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// finite maps NaN and ±Inf — a probe that divided by nothing — to 0, so a
// result is always valid JSON.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

// tailLadder is the set of percentiles, in tenths of a percent, a timing
// may be reported at beyond its median.
var tailLadder = []int{999, 990, 950, 900, 750}

// tailPercentile picks the highest percentile of the ladder that still has
// at least ten of n samples beyond it; 0 means n is too small for any.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if n*(1000-p) >= 10*1000 {
			return float64(p) / 10
		}
	}
	return 0
}

// summary is how every timing is reported: the median, the highest
// percentile with at least ten samples beyond it, and the sample count.
type summary struct {
	N     int     `json:"n"`
	P50   float64 `json:"p50"`
	TailP float64 `json:"tail_p,omitempty"`
	Tail  float64 `json:"tail,omitempty"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
}

func summarize(v []float64) summary {
	s := sortedCopy(v)
	out := summary{N: len(s), P50: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75)}
	if p := tailPercentile(len(s)); p > 0 {
		out.TailP, out.Tail = p, quantile(s, p/100)
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// per divides, reading an empty denominator as "did not happen".
func per(total, n float64) float64 {
	if n == 0 {
		return 0
	}
	return total / n
}

func durationsIn(d []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(d))
	for i, x := range d {
		out[i] = float64(x) / float64(unit)
	}
	return out
}

func sumDurations(d []time.Duration) time.Duration {
	var t time.Duration
	for _, x := range d {
		t += x
	}
	return t
}

// Host noise on a shared box only ever adds time, so a time measured
// several times doing identical work is reduced with its first quartile,
// not its median: robust against one lucky sample and against up to three
// disturbed ones in four.
const undisturbed = 0.25

// steady reduces several episodes that did identical work to one
// undisturbed time per position: episodes are cut into the same positions
// (a scan period, a reporting interval, the k-th report of a worker), and
// each position takes the first quartile of its times across episodes. A
// slow op that recurs at its position in every episode (a compaction step,
// a tuning round) stays slow; a burst of host noise that hit some episodes
// there does not. Episodes must agree on the number of positions.
func steady(eps [][]time.Duration) []time.Duration {
	if len(eps) == 0 {
		return nil
	}
	out := make([]time.Duration, len(eps[0]))
	col := make([]float64, len(eps))
	for i := range out {
		for e := range eps {
			col[e] = float64(eps[e][i])
		}
		sort.Float64s(col)
		out[i] = time.Duration(quantile(col, undisturbed))
	}
	return out
}
