package fleet

import (
	"errors"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"sdfm/internal/core"
	"sdfm/internal/model"
	"sdfm/internal/obs"
	"sdfm/internal/simtime"
	"sdfm/internal/stats"
	"sdfm/internal/telemetry"
)

func smallConfig(seed int64) Config {
	return Config{
		Clusters:           2,
		MachinesPerCluster: 6,
		JobsPerMachine:     4,
		Duration:           12 * time.Hour,
		Seed:               seed,
	}
}

func TestGenerateBasics(t *testing.T) {
	tr, err := Generate(smallConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() == 0 {
		t.Fatal("empty trace")
	}
	jobs := tr.Jobs()
	// 2 clusters x 6 machines x 4 slots = 48 slots; churny slots split
	// into multiple instances, so at least 48 jobs.
	if len(jobs) < 48 {
		t.Errorf("jobs = %d, want >= 48", len(jobs))
	}
	// Every entry already validated by Append; spot-check shapes.
	e := tr.Entries[0]
	if e.WSSPages == 0 || e.TotalPages == 0 {
		t.Errorf("degenerate entry: %+v", e)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(smallConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(smallConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	if i, ok := sameEntries(a.Entries, b.Entries); !ok {
		t.Fatalf("entry %d differs (lengths %d, %d)", i, a.Len(), b.Len())
	}
	c, err := Generate(smallConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() == a.Len() && c.Entries[0].ColdTails[0] == a.Entries[0].ColdTails[0] {
		t.Error("different seeds produced identical traces")
	}
}

func TestGenerateValidatesConfig(t *testing.T) {
	for name, edit := range map[string]func(*Config){
		"duration below interval": func(c *Config) { c.Duration = time.Minute },
		"negative duration":       func(c *Config) { c.Duration = -time.Hour },
		"negative clusters":       func(c *Config) { c.Clusters = -1 },
		"negative machines":       func(c *Config) { c.MachinesPerCluster = -2 },
		"negative jobs":           func(c *Config) { c.JobsPerMachine = -3 },
		"negative interval":       func(c *Config) { c.Interval = -5 * time.Minute },
		"negative churn":          func(c *Config) { c.ChurnFraction = -0.1 },
		"churn above one":         func(c *Config) { c.ChurnFraction = 1.5 },
		"NaN churn":               func(c *Config) { c.ChurnFraction = math.NaN() },
	} {
		cfg := smallConfig(1)
		edit(&cfg)
		var sink recordingSink
		if err := GenerateTo(cfg, &sink); err == nil || len(sink.entries) != 0 {
			t.Errorf("%s: GenerateTo = %v after %d entries, want an error before any", name, err, len(sink.entries))
		}
	}
}

// recordingSink keeps every entry appended to it and fails the failAt-th
// Append, if set.
type recordingSink struct {
	entries []telemetry.Entry
	failAt  int
}

var errSinkFull = errors.New("sink full")

func (s *recordingSink) Append(e telemetry.Entry) error {
	s.entries = append(s.entries, e)
	if len(s.entries) == s.failAt {
		return errSinkFull
	}
	return nil
}

// sameEntries compares two entry lists whole, checksums included, and
// returns the first index at which they differ.
func sameEntries(a, b []telemetry.Entry) (int, bool) {
	for i := range min(len(a), len(b)) {
		if !reflect.DeepEqual(a[i], b[i]) {
			return i, false
		}
	}
	return min(len(a), len(b)), len(a) == len(b)
}

// straddles reports whether some instance of cfg's fleet is live on both
// sides of a boundary between blocks of the given number of intervals.
func straddles(cfg Config, block int) bool {
	cfg.fillDefaults()
	step := time.Duration(block) * cfg.Interval
	for _, chain := range buildInstances(cfg, simtime.Rand(cfg.Seed, "fleet")) {
		for _, inst := range chain {
			if (inst.start/step+1)*step < inst.end {
				return true
			}
		}
	}
	return false
}

// TestGenerateToMatchesSerialSweep holds the slot-parallel sweep to the
// serial oracle entry for entry, across block lengths whose boundaries
// fall inside instances, and across worker counts, including more
// workers than slots.
func TestGenerateToMatchesSerialSweep(t *testing.T) {
	small := func(seed int64) Config {
		return Config{Clusters: 2, MachinesPerCluster: 3, JobsPerMachine: 4, Duration: 6 * time.Hour, Seed: seed}
	}
	churny := small(21)
	churny.ChurnFraction = 0.6
	ragged := small(24)
	ragged.Duration = 5*time.Hour + 7*time.Minute // not a whole number of intervals
	odd := small(25)
	odd.Interval = 7 * time.Minute
	cases := map[string]Config{
		"churny":          churny,
		"single slot":     {Clusters: 1, MachinesPerCluster: 1, JobsPerMachine: 1, Duration: 12 * time.Hour, Seed: 22, ChurnFraction: 1},
		"fewer slots":     {Clusters: 1, MachinesPerCluster: 1, JobsPerMachine: 3, Duration: 10 * time.Hour, Seed: 23, ChurnFraction: 1},
		"ragged duration": ragged,
		"odd interval":    odd,
		"one interval":    {Clusters: 1, MachinesPerCluster: 2, JobsPerMachine: 2, Duration: 5 * time.Minute, Seed: 26},
	}
	for name, cfg := range cases {
		want := telemetry.NewTrace()
		if err := referenceGenerateTo(cfg, want); err != nil {
			t.Fatalf("%s: oracle: %v", name, err)
		}
		slots := cfg.Clusters * cfg.MachinesPerCluster * cfg.JobsPerMachine
		for _, block := range []int{1, 2, 5, 13, blockEntries / slots} {
			if block > 1 && block < want.Len()/slots && !straddles(cfg, block) {
				t.Errorf("%s: no instance crosses a %d-interval block boundary", name, block)
			}
			for _, workers := range []int{1, 4} {
				got := telemetry.NewTrace()
				if err := generateTo(cfg, got, block*slots, workers, tailMargin); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if i, ok := sameEntries(want.Entries, got.Entries); !ok {
					t.Fatalf("%s, %d-interval blocks, %d workers: entry %d differs (%d vs %d entries)",
						name, block, workers, i, got.Len(), want.Len())
				}
			}
		}
		for _, procs := range []int{1, 4} {
			prev := runtime.GOMAXPROCS(procs)
			got := telemetry.NewTrace()
			err := GenerateTo(cfg, got)
			runtime.GOMAXPROCS(prev)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if i, ok := sameEntries(want.Entries, got.Entries); !ok {
				t.Fatalf("%s, GOMAXPROCS=%d: entry %d differs", name, procs, i)
			}
		}
	}
}

// TestGenerateToCountsEntries: sdfm_fleet_entries_total counts exactly
// the entries the sink received.
func TestGenerateToCountsEntries(t *testing.T) {
	cfg := smallConfig(27)
	want := telemetry.NewTrace()
	if err := referenceGenerateTo(cfg, want); err != nil {
		t.Fatal(err)
	}
	o := obs.NewMulti().Observer("fleet")
	cfg.Obs = o
	if err := generateTo(cfg, telemetry.NewTrace(), 3*48, 4, tailMargin); err != nil {
		t.Fatal(err)
	}
	if got := o.Counter("sdfm_fleet_entries_total", "").Value(); got != float64(want.Len()) {
		t.Errorf("sdfm_fleet_entries_total = %v, want %d", got, want.Len())
	}
}

// running reports whether some goroutine's stack holds a call to fn.
func running(fn string) bool {
	buf := make([]byte, 1<<20)
	return strings.Contains(string(buf[:runtime.Stack(buf, true)]), fn)
}

// TestGenerateToStopsAtSinkError: under a sink that fails at entry k,
// one worker and four return the sink's error after the same first k
// entries, the oracle's, and no worker is still filling a block —
// including the next one, filled while the caller drained — once
// generateTo has returned.
func TestGenerateToStopsAtSinkError(t *testing.T) {
	cfg := smallConfig(28)
	want := telemetry.NewTrace()
	if err := referenceGenerateTo(cfg, want); err != nil {
		t.Fatal(err)
	}
	const slots, block = 48, 40 // intervals per block; 144 intervals in all
	before := runtime.NumGoroutine()
	for _, k := range []int{1, 48, 49, 500, block * slots, block*slots + 1, 100 * slots, want.Len() - 1} {
		for _, workers := range []int{1, 4} {
			sink := &recordingSink{failAt: k}
			err := generateTo(cfg, sink, block*slots, workers, tailMargin)
			if running("(*sweep).fillSlot") {
				t.Errorf("fail at %d, %d workers: a worker is still filling after generateTo returned", k, workers)
			}
			if !errors.Is(err, errSinkFull) {
				t.Fatalf("fail at %d, %d workers: generateTo = %v, want the sink's error", k, workers, err)
			}
			if i, ok := sameEntries(want.Entries[:k], sink.entries); !ok {
				t.Errorf("fail at %d, %d workers: entry %d differs (%d entries)", k, workers, i, len(sink.entries))
			}
		}
	}
	// A worker's Done precedes its exit, so give the last ones a moment.
	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > before; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still running after GenerateTo returned, %d before", runtime.NumGoroutine(), before)
		}
	}
}

func TestColdCurveMatchesPaperShape(t *testing.T) {
	// Figure 1: at T = 120 s roughly a third of fleet memory is cold and
	// ~15% of cold memory is accessed per minute; both fall as T grows.
	cfg := Config{
		Clusters: 3, MachinesPerCluster: 10, JobsPerMachine: 6,
		Duration: 24 * time.Hour, Seed: 3,
	}
	tr, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	curve := ColdCurve(tr)
	if len(curve) != len(tr.Thresholds) {
		t.Fatalf("curve has %d points", len(curve))
	}
	first := curve[0]
	if first.ThresholdSeconds != 120 {
		t.Fatalf("first threshold = %v s", first.ThresholdSeconds)
	}
	if first.ColdFraction < 0.20 || first.ColdFraction > 0.45 {
		t.Errorf("cold fraction at 120 s = %.3f, want ~0.32", first.ColdFraction)
	}
	if first.PromotionsPerMinPerColdByte < 0.05 || first.PromotionsPerMinPerColdByte > 0.35 {
		t.Errorf("cold access rate at 120 s = %.3f/min, want ~0.15", first.PromotionsPerMinPerColdByte)
	}
	// Both series decrease with the threshold.
	for i := 1; i < len(curve); i++ {
		if curve[i].ColdFraction > curve[i-1].ColdFraction+1e-9 {
			t.Errorf("cold fraction not decreasing at %v s", curve[i].ThresholdSeconds)
		}
	}
	last := curve[len(curve)-1]
	if last.ColdFraction >= first.ColdFraction/1.5 {
		t.Errorf("cold fraction barely decays: %.3f -> %.3f", first.ColdFraction, last.ColdFraction)
	}
	if last.PromotionsPerMinPerColdByte >= first.PromotionsPerMinPerColdByte {
		t.Errorf("promotion rate does not decay with threshold")
	}
}

func TestMachineColdFractionSpread(t *testing.T) {
	// Figure 2: wide per-machine variation, even within a cluster.
	cfg := Config{
		Clusters: 2, MachinesPerCluster: 40, JobsPerMachine: 4,
		Duration: 12 * time.Hour, Seed: 5,
	}
	tr, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	byMachine := MachineColdFractions(tr)
	if len(byMachine) != 80 {
		t.Fatalf("machines = %d, want 80", len(byMachine))
	}
	var vals []float64
	for _, v := range byMachine {
		vals = append(vals, v)
	}
	s := stats.Summarize(vals)
	if s.Max-s.Min < 0.2 {
		t.Errorf("per-machine cold spread = [%.2f, %.2f]; want a wide range", s.Min, s.Max)
	}
	if s.Min < 0 || s.Max > 1 {
		t.Errorf("cold fractions out of [0,1]: [%v, %v]", s.Min, s.Max)
	}
}

func TestJobColdFractionDeciles(t *testing.T) {
	// Figure 3: top decile of jobs >= ~43% cold, bottom decile < ~9%.
	cfg := Config{
		Clusters: 2, MachinesPerCluster: 25, JobsPerMachine: 6,
		Duration: 12 * time.Hour, Seed: 11,
	}
	tr, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	byJob := JobColdFractions(tr)
	var vals []float64
	for _, v := range byJob {
		vals = append(vals, v)
	}
	if len(vals) < 200 {
		t.Fatalf("only %d jobs", len(vals))
	}
	p90 := stats.Percentile(vals, 90)
	p10 := stats.Percentile(vals, 10)
	if p90 < 0.35 {
		t.Errorf("p90 job cold fraction = %.2f, want >= 0.35 (paper: 0.43)", p90)
	}
	if p10 > 0.15 {
		t.Errorf("p10 job cold fraction = %.2f, want <= 0.15 (paper: 0.09)", p10)
	}
}

func TestChurnProducesMultipleInstances(t *testing.T) {
	cfg := smallConfig(2)
	cfg.ChurnFraction = 1.0 // every slot churns
	tr, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 48 slots over 12 h with 1-8 h lifetimes must yield > 48 instances.
	if got := len(tr.Jobs()); got <= 48 {
		t.Errorf("instances = %d, want > 48 with full churn", got)
	}
}

func TestTraceReplaysThroughModel(t *testing.T) {
	// End-to-end: the generated trace must replay cleanly through the
	// fast model with sane outputs, and conservative K must not produce
	// more cold memory than aggressive K.
	tr, err := Generate(Config{
		Clusters: 1, MachinesPerCluster: 10, JobsPerMachine: 6,
		Duration: 24 * time.Hour, Seed: 13,
	})
	if err != nil {
		t.Fatal(err)
	}
	run := func(k float64) model.FleetResult {
		res, err := model.Run(tr, model.Config{
			Params: core.Params{K: k, S: 10 * time.Minute},
			SLO:    core.DefaultSLO,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	aggressive := run(60)
	conservative := run(99)
	if aggressive.Coverage <= 0 || aggressive.Coverage > 1 {
		t.Errorf("coverage = %.3f", aggressive.Coverage)
	}
	if conservative.ColdBytes > aggressive.ColdBytes {
		t.Errorf("K=99 cold %.3g should not exceed K=60 cold %.3g",
			conservative.ColdBytes, aggressive.ColdBytes)
	}
	if conservative.P98Rate > aggressive.P98Rate+1e-9 {
		t.Errorf("K=99 p98 rate %.5f should be <= K=60 %.5f",
			conservative.P98Rate, aggressive.P98Rate)
	}
}

func TestSweepsLiftDeepColdPromotions(t *testing.T) {
	// Batch-analytics sweeps are modelled as a continuous touch process
	// at trace granularity: promotions to very cold pages must be
	// distinctly higher than for a log-processing fleet whose cold tail
	// is essentially never re-read.
	gen := func(name string) *telemetry.Trace {
		tr, err := Generate(Config{
			Clusters: 1, MachinesPerCluster: 6, JobsPerMachine: 4,
			Duration: 10 * time.Hour, Seed: 17,
			Weights: map[string]float64{name: 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	deepRate := func(tr *telemetry.Trace) float64 {
		idx := tr.ThresholdIndexFor(96) // ~3.2 h
		var promos, cold float64
		for _, e := range tr.Entries {
			promos += float64(e.PromoTails[idx]) / e.IntervalMinutes
			cold += float64(e.ColdTails[idx])
		}
		if cold == 0 {
			return 0
		}
		return promos / cold
	}
	batch := deepRate(gen("batch-analytics"))
	logs := deepRate(gen("log-processor"))
	if batch <= logs*2 {
		t.Errorf("deep-cold access rate: batch %.6f should be well above logs %.6f", batch, logs)
	}
	if batch == 0 {
		t.Error("sweeps produce no deep-cold promotions")
	}
}

func TestCompressibleFracSet(t *testing.T) {
	tr, err := Generate(smallConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range tr.Entries[:10] {
		if e.CompressibleFrac <= 0.5 || e.CompressibleFrac >= 1 {
			t.Errorf("entry %s CompressibleFrac = %v, want in (0.5, 1)", e.Key, e.CompressibleFrac)
		}
	}
}

func TestMachineKeyGrouping(t *testing.T) {
	tr := telemetry.NewTrace()
	n := len(tr.Thresholds)
	mk := func(cluster, machine, job string, cold uint64) telemetry.Entry {
		tails := make([]uint64, n)
		promo := make([]uint64, n)
		for i := range tails {
			tails[i] = cold
		}
		return telemetry.Entry{
			Key:             telemetry.JobKey{Cluster: cluster, Machine: machine, Job: job},
			TimestampSec:    300,
			IntervalMinutes: 5,
			WSSPages:        10, TotalPages: 100,
			ColdTails: tails, PromoTails: promo,
		}
	}
	tr.Append(mk("c", "m1", "a", 30))
	tr.Append(mk("c", "m1", "b", 50))
	tr.Append(mk("c", "m2", "a", 10))
	byMachine := MachineColdFractions(tr)
	if got := byMachine[MachineKey{"c", "m1"}]; got != 0.4 {
		t.Errorf("m1 cold fraction = %v, want 0.4", got)
	}
	if got := byMachine[MachineKey{"c", "m2"}]; got != 0.1 {
		t.Errorf("m2 cold fraction = %v, want 0.1", got)
	}
}
