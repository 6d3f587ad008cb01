package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
)

// The verdict words, one per end-to-end metric of a comparison.
const (
	improved   = "improved"
	unchanged  = "unchanged"
	regressed  = "regressed"
	unresolved = "unresolved"
)

// metricSpec is one end-to-end metric of BENCHMARK.json: its direction and
// the share of the base's median by which it may worsen.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadSpecs reads the end-to-end metrics from a BENCHMARK.json.
func loadSpecs(path string) ([]metricSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []metricSpec `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(spec.EndToEnd) == 0 {
		return nil, fmt.Errorf("%s names no end-to-end metric", path)
	}
	for _, m := range spec.EndToEnd {
		if m.Better != "lower" && m.Better != "higher" {
			return nil, fmt.Errorf("%s: metric %s is better %q, not lower or higher", path, m.Name, m.Better)
		}
	}
	return spec.EndToEnd, nil
}

// host is what a result file says about the machine it ran on. Runs on
// different hosts, processor counts or Go versions are not compared.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
}

// kv is one exact-repeat value of a run.
type kv struct {
	Name  string `json:"name"`
	Value string `json:"value"`
}

// benchRun is one bench/run.sh run of one workload: the part of its --out file
// the comparison reads.
type benchRun struct {
	Host      host
	Workload  string  `json:"workload"`
	Seed      int64   `json:"seed"`
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Exact     []kv    `json:"exact"`
	Metrics   []value `json:"metrics"`
}

type value struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// readRun reads a bench/run.sh --out file holding one untraced run.
func readRun(path string) (benchRun, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return benchRun{}, err
	}
	var f struct {
		Host host       `json:"host"`
		Runs []benchRun `json:"runs"`
	}
	if err := json.Unmarshal(b, &f); err != nil {
		return benchRun{}, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.Runs) != 1 {
		return benchRun{}, fmt.Errorf("%s holds %d runs, want one", path, len(f.Runs))
	}
	r := f.Runs[0]
	r.Host = f.Host
	return r, nil
}

func (r *benchRun) metric(name string) (float64, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m.Value, true
		}
	}
	return 0, false
}

// summary is one side's median and quartiles over its runs.
type summary struct {
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
}

// spread is the distance between the quartiles as a share of the median.
func (s summary) spread() float64 { return (s.Q3 - s.Q1) / s.Median }

// pair is one run of each side, with the order they ran in.
type pair struct {
	BaseFirst bool               `json:"base_first"`
	Base      map[string]float64 `json:"base"`
	New       map[string]float64 `json:"new"`
}

// metricResult is the paired reading of one end-to-end metric.
type metricResult struct {
	metricSpec
	Base summary `json:"base"`
	New  summary `json:"new"`
	// PairedRatio is the median over pairs of new / base.
	PairedRatio float64 `json:"paired_ratio"`
	// Wins counts pairs the new side read better, Losses worse; Ties
	// count for neither.
	Wins   int `json:"wins"`
	Losses int `json:"losses"`
	Ties   int `json:"ties"`
	// SignP is the two-sided sign-test p of Wins against Losses.
	SignP   float64 `json:"sign_p"`
	Verdict string  `json:"verdict"`
}

// comparison is every pair of one workload at one seed and its verdicts.
type comparison struct {
	Workload  string         `json:"workload"`
	Seed      int64          `json:"seed"`
	Attempted int64          `json:"attempted_per_run"`
	Exact     []kv           `json:"exact"`
	Pairs     []pair         `json:"pairs"`
	Metrics   []metricResult `json:"metrics"`
	host      host
}

// compare pairs base[i] with cur[i], which ran in the order baseFirst[i]
// says. It refuses runs that are not comparable: an incorrect run or one
// with a failed operation, another workload, seed or host, or an
// exact-repeat value that differs from the first base run's.
func compare(specs []metricSpec, base, cur []benchRun, baseFirst []bool) (comparison, error) {
	if len(base) == 0 || len(base) != len(cur) || len(base) != len(baseFirst) {
		return comparison{}, fmt.Errorf("%d base runs, %d new runs and %d orders do not pair", len(base), len(cur), len(baseFirst))
	}
	ref := &base[0]
	for _, side := range []struct {
		name string
		runs []benchRun
	}{{"base", base}, {"new", cur}} {
		for i := range side.runs {
			r := &side.runs[i]
			switch {
			case !r.Correct || r.Failed != 0:
				return comparison{}, fmt.Errorf("%s run %d of %s is incorrect (%d of %d operations failed)",
					side.name, i+1, r.Workload, r.Failed, r.Attempted)
			case r.Workload != ref.Workload || r.Seed != ref.Seed:
				return comparison{}, fmt.Errorf("%s run %d is %s seed %d, not %s seed %d",
					side.name, i+1, r.Workload, r.Seed, ref.Workload, ref.Seed)
			case r.Host != ref.Host:
				return comparison{}, fmt.Errorf("%s run %d ran on another host: %+v, not %+v", side.name, i+1, r.Host, ref.Host)
			case !slices.Equal(r.Exact, ref.Exact):
				return comparison{}, fmt.Errorf("%s run %d of %s: exact-repeat values %v differ from %v",
					side.name, i+1, r.Workload, r.Exact, ref.Exact)
			}
		}
	}
	c := comparison{Workload: ref.Workload, Seed: ref.Seed, Attempted: ref.Attempted, Exact: ref.Exact, host: ref.Host}
	for i := range base {
		p := pair{BaseFirst: baseFirst[i], Base: map[string]float64{}, New: map[string]float64{}}
		for _, s := range specs {
			b, okb := base[i].metric(s.Name)
			n, okn := cur[i].metric(s.Name)
			if !okb || !okn {
				return comparison{}, fmt.Errorf("pair %d of %s lacks metric %s", i+1, ref.Workload, s.Name)
			}
			p.Base[s.Name], p.New[s.Name] = b, n
		}
		c.Pairs = append(c.Pairs, p)
	}
	for _, s := range specs {
		b := make([]float64, len(c.Pairs))
		n := make([]float64, len(c.Pairs))
		for i, p := range c.Pairs {
			b[i], n[i] = p.Base[s.Name], p.New[s.Name]
		}
		c.Metrics = append(c.Metrics, judge(s, b, n))
	}
	return c, nil
}

// minPairs is the fewest pairs a gain may rest on, and minGain the
// smallest gap between medians, as a share of the base's, that counts as
// one: a base whose runs repeat a value to the byte has quartiles that
// coincide, and no gap is wider than nothing.
const (
	minPairs = 10
	minGain  = 0.01
)

// judge reads one metric over paired runs (base[i] ran beside cur[i]):
//
//   - improved: over at least minPairs pairs, the new side wins at least
//     nine in ten, ties counting for neither, and its median is better
//     than the base's by more than the distance between the base's
//     quartiles and by more than minGain of the base's median;
//   - unresolved, when fewer pairs would otherwise read improved;
//   - regressed: the new median is worse than the base's by more than the
//     bound, as a share of the base's median;
//   - unresolved: otherwise, when either side's quartile spread is wider
//     than the bound, unless every new run reads better than every base
//     run;
//   - unchanged: otherwise.
func judge(s metricSpec, base, cur []float64) metricResult {
	r := metricResult{metricSpec: s, Base: summarize(base), New: summarize(cur)}
	ratios := make([]float64, len(base))
	for i := range base {
		ratios[i] = cur[i] / base[i]
		switch {
		case s.better(cur[i], base[i]):
			r.Wins++
		case s.better(base[i], cur[i]):
			r.Losses++
		default:
			r.Ties++
		}
	}
	r.PairedRatio = summarize(ratios).Median
	r.SignP = signTest(r.Wins, r.Losses)
	if r.Base.Median <= 0 || r.New.Median < 0 {
		r.Verdict = unresolved
		return r
	}
	worse := r.New.Median/r.Base.Median - 1
	if s.Better == "higher" {
		worse = -worse
	}
	gain := 10*r.Wins >= 9*len(base) && s.better(r.New.Median, r.Base.Median) &&
		math.Abs(r.New.Median-r.Base.Median) > max(r.Base.Q3-r.Base.Q1, minGain*r.Base.Median)
	switch {
	case gain && len(base) >= minPairs:
		r.Verdict = improved
	case gain:
		r.Verdict = unresolved
	case worse > s.Bound:
		r.Verdict = regressed
	case (r.Base.spread() > s.Bound || r.New.spread() > s.Bound) && !s.allBetter(cur, base):
		r.Verdict = unresolved
	default:
		r.Verdict = unchanged
	}
	return r
}

// better reports whether a reads strictly better than b.
func (s metricSpec) better(a, b float64) bool {
	if s.Better == "higher" {
		return a > b
	}
	return a < b
}

// allBetter reports whether every value of a reads better than every
// value of b.
func (s metricSpec) allBetter(a, b []float64) bool {
	for _, x := range a {
		for _, y := range b {
			if !s.better(x, y) {
				return false
			}
		}
	}
	return true
}

// summarize returns the median and quartiles of v, interpolating linearly
// between order statistics as the benchmark does.
func summarize(v []float64) summary {
	s := slices.Clone(v)
	slices.Sort(s)
	q := func(p float64) float64 {
		pos := p * float64(len(s)-1)
		lo, hi := int(math.Floor(pos)), int(math.Ceil(pos))
		return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
	}
	return summary{Q1: q(0.25), Median: q(0.5), Q3: q(0.75)}
}

// signTest is the two-sided exact sign-test p of wins against losses:
// the chance of a split at least this uneven if either side were equally
// likely to win each untied pair.
func signTest(wins, losses int) float64 {
	n := wins + losses
	k := min(wins, losses)
	// Sum C(n, i) / 2^n for i <= k in log space, so large n cannot
	// overflow.
	tail := 0.0
	for i := 0; i <= k; i++ {
		lg := lgamma(n+1) - lgamma(i+1) - lgamma(n-i+1) - float64(n)*math.Ln2
		tail += math.Exp(lg)
	}
	return min(1, 2*tail)
}

func lgamma(x int) float64 {
	v, _ := math.Lgamma(float64(x))
	return v
}
