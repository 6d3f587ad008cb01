package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// canned is one real cp_rounds result file, trimmed to what the driver
// reads.
func canned(t *testing.T) benchRun {
	t.Helper()
	r, err := readRun(filepath.Join("testdata", "cp_rounds.json"))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// withMetric returns one copy of r per value, each with metric name set
// to that value.
func withMetric(r benchRun, name string, values ...float64) []benchRun {
	out := make([]benchRun, len(values))
	for i, v := range values {
		c := r
		c.Metrics = slices.Clone(r.Metrics)
		for j := range c.Metrics {
			if c.Metrics[j].Name == name {
				c.Metrics[j].Value = v
			}
		}
		out[i] = c
	}
	return out
}

func alternating(n int) []bool {
	order := make([]bool, n)
	for i := range order {
		order[i] = i%2 == 0
	}
	return order
}

var (
	setupSpec = metricSpec{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25}
	workSpec  = metricSpec{Name: "work_per_s", Unit: "1/s", Better: "higher", Bound: 0.25}
	cpuSpec   = metricSpec{Name: "cpu_us_per_work", Unit: "us", Better: "lower", Bound: 0.25}
	heapSpec  = metricSpec{Name: "live_heap_mb", Unit: "MiB", Better: "lower", Bound: 0.2}
)

// verdictOf compares base and cur values of one metric on the canned run.
func verdictOf(t *testing.T, s metricSpec, base, cur []float64) metricResult {
	t.Helper()
	r := canned(t)
	c, err := compare([]metricSpec{s}, withMetric(r, s.Name, base...), withMetric(r, s.Name, cur...), alternating(len(base)))
	if err != nil {
		t.Fatal(err)
	}
	return c.Metrics[0]
}

func TestJudgeVerdicts(t *testing.T) {
	parent := []float64{4.20, 4.34, 4.51, 4.28, 4.40, 4.31, 4.45, 4.25, 4.38, 4.33}
	ones := []float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 1}
	scale := func(v []float64, f float64) []float64 {
		out := make([]float64, len(v))
		for i := range v {
			out[i] = v[i] * f
		}
		return out
	}
	for _, tc := range []struct {
		name     string
		spec     metricSpec
		base     []float64
		cur      []float64
		want     string
		wins     int
		wantTies int
	}{
		{"all ten pairs faster", setupSpec, parent, scale(parent, 0.62), improved, 10, 0},
		{"nine of ten", setupSpec, parent, append(scale(parent[:9], 0.62), 4.6), improved, 9, 0},
		// Eight wins in ten is no claim, and the median is not worse.
		{"eight of ten", setupSpec, parent, append(scale(parent[:8], 0.62), 4.6, 4.7), unchanged, 8, 0},
		// A gap inside the parent's own quartile spread is no claim.
		{"gap inside the parent's spread", setupSpec, parent, scale(parent, 0.99), unchanged, 10, 0},
		{"identical", setupSpec, parent, parent, unchanged, 0, 10},
		{"slower within the bound", setupSpec, parent, scale(parent, 1.2), unchanged, 0, 0},
		{"slower beyond the bound", setupSpec, parent, scale(parent, 1.3), regressed, 0, 0},
		{"throughput down", workSpec, []float64{100, 101, 99, 100}, []float64{70, 71, 69, 70}, regressed, 0, 0},
		{"throughput up", workSpec, scale(parent, 100), scale(parent, 140), improved, 10, 0},
		// Fewer than ten pairs carry no claim, however clear.
		{"throughput up over four pairs", workSpec, []float64{100, 101, 99, 100}, []float64{140, 141, 139, 140}, unresolved, 4, 0},
		// BENCH_42's cp_rounds seed 42 cpu_us_per_work: x0.966 over 5/5
		// pairs, sign p 0.0625, on code that change does not run.
		{"five pairs of cp_rounds cpu_us_per_work", cpuSpec,
			[]float64{29.87990089699074, 31.902994791666664, 31.0587890625, 29.941908998842592, 30.78600260416667},
			[]float64{28.845999710648147, 26.95755931712963, 30.011490885416666, 29.1813404224537, 30.509874131944443}, unresolved, 5, 0},
		// BENCH_42's live_heap_mb on sim_fleet seed 42 (x0.9993, 10/10)
		// and sim_coldstore seed 42 (x0.9999, 5/5): the base repeats its
		// heap to a few KiB, so its quartiles all but coincide.
		{"sim_fleet heap 0.07 % lower", heapSpec,
			[]float64{9.508781433105469, 9.508506774902344, 9.509071350097656, 9.508934020996094, 9.509002685546875, 9.508506774902344, 9.508506774902344, 9.508506774902344, 9.50860595703125, 9.508689880371094},
			[]float64{9.502098083496094, 9.502189636230469, 9.502098083496094, 9.502616882324219, 9.502098083496094, 9.502189636230469, 9.502098083496094, 9.502098083496094, 9.503807067871094, 9.502189636230469}, unchanged, 10, 0},
		{"sim_coldstore heap 0.01 % lower", heapSpec,
			[]float64{12.912254333496094, 12.912345886230469, 12.912086486816406, 12.912315368652344, 12.91229248046875},
			[]float64{12.911361694335938, 12.911018371582031, 12.911026000976562, 12.911033630371094, 12.911331176757812}, unchanged, 5, 0},
		// Quartiles that coincide exactly leave only the floor: 0.07 %
		// in ten of ten pairs is no gain.
		{"zero spread", heapSpec, scale(ones, 9.5086), scale(ones, 9.5021), unchanged, 10, 0},
		// Quartiles 30 % apart against a 25 % bound: a 10 % slowdown
		// cannot be told from noise.
		{"spread wider than the bound", setupSpec, []float64{3, 4, 5, 3, 4, 5, 3, 4, 5, 4}, []float64{3.3, 4.4, 5.5, 3.3, 4.4, 5.5, 3.3, 4.4, 5.5, 4.4}, unresolved, 0, 0},
		// ... unless every new run reads better than every base run.
		{"wide but every run better", setupSpec, []float64{5, 6, 7, 5, 6, 7}, []float64{4, 4.5, 4.9, 4, 4.5, 4.9}, unchanged, 6, 0},
	} {
		m := verdictOf(t, tc.spec, tc.base, tc.cur)
		if m.Verdict != tc.want || m.Wins != tc.wins || m.Ties != tc.wantTies {
			t.Errorf("%s: verdict %s, %d wins, %d ties; want %s, %d, %d", tc.name, m.Verdict, m.Wins, m.Ties, tc.want, tc.wins, tc.wantTies)
		}
	}
}

func TestJudgeSummaries(t *testing.T) {
	m := verdictOf(t, setupSpec, []float64{4, 5, 6, 7, 8}, []float64{2, 2.5, 3, 3.5, 4})
	if m.Base != (summary{Q1: 5, Median: 6, Q3: 7}) || m.New != (summary{Q1: 2.5, Median: 3, Q3: 3.5}) {
		t.Errorf("summaries base %+v new %+v", m.Base, m.New)
	}
	if m.PairedRatio != 0.5 {
		t.Errorf("paired ratio %v, want 0.5", m.PairedRatio)
	}
}

func TestSignTest(t *testing.T) {
	for _, tc := range []struct {
		wins, losses int
		want         float64
	}{
		{10, 0, 2.0 / 1024},
		{0, 10, 2.0 / 1024},
		{9, 1, 22.0 / 1024},
		{5, 5, 1},
		{0, 0, 1},
		{400, 0, 2 * math.Pow(2, -400)},
	} {
		if got := signTest(tc.wins, tc.losses); math.Abs(got-tc.want) > 1e-9*tc.want {
			t.Errorf("signTest(%d, %d) = %g, want %g", tc.wins, tc.losses, got, tc.want)
		}
	}
}

func TestCompareRefuses(t *testing.T) {
	r := canned(t)
	specs := []metricSpec{setupSpec}
	good := func() []benchRun { return withMetric(r, "setup_s", 4, 4, 4) }
	for _, tc := range []struct {
		name string
		edit func(base, cur []benchRun)
		want string
	}{
		{"incorrect run", func(_, cur []benchRun) { cur[1].Correct = false }, "incorrect"},
		{"failed operation", func(base, _ []benchRun) { base[2].Failed = 1 }, "incorrect"},
		{"exact value moved", func(_, cur []benchRun) {
			cur[0].Exact = slices.Clone(cur[0].Exact)
			cur[0].Exact[0].Value = "0000000000000000"
		}, "exact-repeat"},
		{"another seed", func(_, cur []benchRun) { cur[2].Seed = 1337 }, "seed"},
		{"another host", func(_, cur []benchRun) { cur[0].Host.GOMAXPROCS = 1 }, "host"},
		{"missing metric", func(base, _ []benchRun) { base[1].Metrics = nil }, "lacks metric"},
	} {
		base, cur := good(), good()
		tc.edit(base, cur)
		_, err := compare(specs, base, cur, alternating(3))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: compare = %v, want an error about %q", tc.name, err, tc.want)
		}
	}
}

// TestCompareCannedFile reads the canned file against itself through
// every metric BENCHMARK.json names: nothing moved, so every metric is
// unchanged.
func TestCompareCannedFile(t *testing.T) {
	specs, err := loadSpecs(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	r := canned(t)
	runs := []benchRun{r, r, r, r}
	c, err := compare(specs, runs, runs, alternating(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Metrics) != len(specs) || c.Workload != "cp_rounds" || c.Seed != 42 {
		t.Fatalf("comparison %s seed %d with %d metrics", c.Workload, c.Seed, len(c.Metrics))
	}
	for _, m := range c.Metrics {
		if m.Verdict != unchanged || m.PairedRatio != 1 || m.Ties != 4 {
			t.Errorf("%s: %s, ratio %v, %d ties", m.Name, m.Verdict, m.PairedRatio, m.Ties)
		}
	}
	var out bytes.Buffer
	printComparison(&out, &c)
	if !strings.Contains(out.String(), "cp.decisions_hash=dce14c167ee11998") || strings.Count(out.String(), unchanged) != len(specs) {
		t.Errorf("printed:\n%s", out.String())
	}
}

func TestFlagErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-new", ".", "-workloads", "cp_rounds"},
		{"-base", ".", "-workloads", "cp_rounds"},
		{"-base", ".", "-new", ".", "-aa", "-workloads", "cp_rounds"},
		{"-base", ".", "-new", "."},
		{"-base", ".", "-new", ".", "-workloads", "cp_rounds", "-pairs", "0"},
		{"-base", ".", "-new", ".", "-workloads", "cp_rounds", "-seeds", "x"},
	} {
		var out, errs bytes.Buffer
		if err := run(args, &out, &errs); err == nil {
			t.Errorf("benchab %v: no error", args)
		}
	}
}

func TestResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	a, b := tree{Commit: "aaa"}, tree{Commit: "bbb"}
	fresh := report{Base: a, New: b}
	if err := resume(path, &fresh); err != nil || len(fresh.Comparisons) != 0 {
		t.Fatalf("missing file: %v, %d comparisons", err, len(fresh.Comparisons))
	}
	saved := report{Host: canned(t).Host, Base: a, New: b, Comparisons: []comparison{{Workload: "cp_rounds", Seed: 42}}}
	data, err := json.Marshal(&saved)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	same := report{Base: a, New: b}
	if err := resume(path, &same); err != nil || len(same.Comparisons) != 1 || same.Host != saved.Host {
		t.Errorf("same trees: %v, %+v", err, same)
	}
	other := report{Base: a, New: tree{Commit: "ccc"}}
	if err := resume(path, &other); err == nil {
		t.Error("a report of other trees was resumed")
	}
}
