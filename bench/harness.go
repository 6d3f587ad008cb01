package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// Default seed, and the held-back seed a performance claim must also hold
// on (choosing-metrics §6.3). BENCHMARK.json has no field for either.
const (
	defaultSeed = 42
	checkSeed   = 1337
)

// loadWorkers is how many goroutines / connections generate load: all of it
// comes from this one process, closed loop.
func loadWorkers() int {
	n := runtime.NumCPU()
	if n > 4 {
		n = 4
	}
	return n
}

// sizes fixes the work of one episode of every workload. The std sizes are
// the issue's shapes shrunk so that a run of several episodes, set-up
// included, stays near 20 s on the 2-core reference box; smoke sizes exist
// for bench_test.go.
type sizes struct {
	FleetMachines  int    `json:"fleet_machines"`
	FleetDRAM      uint64 `json:"fleet_dram_bytes"`
	FleetJobs      int    `json:"fleet_jobs"`
	FleetWarmSteps int    `json:"fleet_warm_steps"`
	FleetSteps     int    `json:"fleet_steps"` // cluster scan periods in the window

	ColdJobs      int `json:"cold_jobs"`
	ColdPages     int `json:"cold_pages"` // per job
	ColdWarmSteps int `json:"cold_warm_steps"`
	ColdSteps     int `json:"cold_steps"`

	IngestAgents  int `json:"ingest_agents"`
	IngestReports int `json:"ingest_reports"` // per agent
	IngestBatch   int `json:"ingest_batch"`   // entries per report

	RoundsClusters int           `json:"rounds_clusters"`
	RoundsMachines int           `json:"rounds_machines"` // per cluster
	RoundsJobs     int           `json:"rounds_jobs"`     // per machine
	RoundsSpan     time.Duration `json:"rounds_span_ns"`  // telemetry time replayed
	RoundEvery     time.Duration `json:"round_every_ns"`
}

var scales = map[string]sizes{
	"std": {
		FleetMachines: 4, FleetDRAM: 2 << 30, FleetJobs: 12, FleetWarmSteps: 12, FleetSteps: 16,
		ColdJobs: 2, ColdPages: 50_000, ColdWarmSteps: 120, ColdSteps: 3000,
		IngestAgents: 64, IngestReports: 20, IngestBatch: 64,
		RoundsClusters: 4, RoundsMachines: 8, RoundsJobs: 5, RoundsSpan: 72 * time.Hour, RoundEvery: 6 * time.Hour,
	},
	"smoke": {
		FleetMachines: 1, FleetDRAM: 1 << 30, FleetJobs: 2, FleetWarmSteps: 12, FleetSteps: 4,
		ColdJobs: 2, ColdPages: 2_000, ColdWarmSteps: 30, ColdSteps: 60,
		IngestAgents: 8, IngestReports: 3, IngestBatch: 16,
		RoundsClusters: 1, RoundsMachines: 2, RoundsJobs: 2, RoundsSpan: 13 * time.Hour, RoundEvery: 6 * time.Hour,
	},
}

// env is what one episode of a workload is given.
type env struct {
	seed  int64
	idx   int64 // episode number within the run; the trace's campaign id
	sz    sizes
	tr    *tracer
	probe bool   // last traced episode: run the layer probes on the live state
	tmp   string // directory for this episode's files, removed afterwards
	start time.Time
	// heapBase is the live heap that is the harness's own: what was live
	// when the episode started, re-taken by inputsReady once a workload
	// has generated inputs it must hold through the window.
	heapBase uint64
}

// span runs f inside a span on the main lane; every layer probe gets one.
func (e *env) span(name string, f func()) {
	sp := e.tr.begin(name, laneMain, e.idx, noSpan)
	f()
	e.tr.end(sp)
}

// liveHeap forces a collection and returns the bytes still reachable.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// inputsReady marks the point in set-up where the workload's generated
// inputs exist and nothing of the program under test does yet, so that
// live_heap_mb charges the program and not the replay data.
func (e *env) inputsReady() { e.heapBase = liveHeap() }

// kv is one exact-repeat value: identical across episodes, runs and
// commits that do not change behaviour.
type kv struct {
	Name  string `json:"name"`
	Value string `json:"value"`
}

// episode is one complete cold run of a workload: set-up, the measured
// window of fixed work, output checks, teardown.
type episode struct {
	traced bool
	setup  time.Duration
	ops    []time.Duration // contiguous op times tiling the window, one per position
	work   int64           // work units done in the window
	lat    []time.Duration // user-visible operation latencies; nil means ops
	cpu    time.Duration
	heapMB float64
	allocs uint64 // heap objects allocated in the window

	attempted, failed int64
	exact             []kv
	violations        []string           // failed output checks
	layer             map[string]float64 // per-layer metrics, probe episode only
}

func (ep *episode) exactf(name, format string, args ...any) {
	ep.exact = append(ep.exact, kv{name, fmt.Sprintf(format, args...)})
}

func (ep *episode) violate(format string, args ...any) {
	ep.violations = append(ep.violations, fmt.Sprintf(format, args...))
}

// window meters the measured part of an episode.
type window struct {
	ep      *episode
	base    uint64
	last    time.Time
	cpu0    time.Duration
	mallocs uint64
}

// begin ends set-up and starts the measured window.
func (e *env) begin(ep *episode, ops int) *window {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	ep.ops = make([]time.Duration, 0, ops)
	w := &window{ep: ep, base: e.heapBase, cpu0: processCPU(), mallocs: ms.Mallocs}
	w.last = time.Now()
	ep.setup = w.last.Sub(e.start)
	return w
}

// lap closes one op position.
func (w *window) lap() {
	now := time.Now()
	w.ep.ops = append(w.ep.ops, now.Sub(w.last))
	w.last = now
}

// finish closes the window: CPU spent, then the live heap after a forced GC
// while the workload's state is still referenced by the caller, less the
// harness's own share.
func (w *window) finish() {
	w.ep.cpu = processCPU() - w.cpu0
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	w.ep.allocs = ms.Mallocs - w.mallocs
	w.ep.heapMB = (float64(liveHeap()) - float64(w.base)) / (1 << 20)
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return ru
}

// processCPU is the user+system CPU time this process has used.
func processCPU() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's resident-set high-water mark (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 { return float64(rusage().Maxrss) / 1024 }

// workloadDef is one benchmark workload.
type workloadDef struct {
	name string
	why  string
	work string // what work_per_s counts
	op   string // what op_ms_p50 times
	// episode runs one episode; it must call e.begin when set-up is done.
	episode func(e *env) (*episode, error)
}

var workloads = []workloadDef{
	{
		name:    "sim_fleet",
		why:     "standard archetype mix on a small cluster, the traffic every CLI and figure runs: access generation does nearly all the work, the kernel-mechanism layers almost none",
		work:    "machine scan periods",
		op:      "one scan period of the whole cluster",
		episode: simFleetEpisode,
	},
	{
		name:    "sim_coldstore",
		why:     "one far-memory machine holding two large mostly-cold jobs: scan, reclaim, zswap store/load and compression carry the step, and set-up is the cold-start fill into zswap",
		work:    "machine scan periods",
		op:      "one Machine.Step",
		episode: simColdstoreEpisode,
	},
	{
		name:    "cp_ingest",
		why:     "catch-up ingest capacity over real HTTP with batched binary frames: wire decode, HTTP, stripe enqueue and Tick ingest do the work, model/tuner/gp none",
		work:    "telemetry entries ingested",
		op:      "one Client.Report round trip",
		episode: cpIngestEpisode,
	},
	{
		name:    "cp_rounds",
		why:     "the control plane at paper cadence in lock step: tiny report frames where per-request cost dominates, plus tuning rounds, pushes, polls and checkpoints that cp_ingest never runs",
		work:    "telemetry entries carried report to poll",
		op:      "closing Tick to last agent on the round's epoch",
		episode: cpRoundsEpisode,
	},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// options selects one run.
type options struct {
	workload string
	seed     int64
	seconds  float64 // episodes repeat until their windows add up to this
	trace    bool
	scale    string
	tmpBase  string // where episode directories are made
}

// minEpisodes is the fewest episodes a median is taken over.
const minEpisodes = 3

// metricValue is one reported metric.
type metricValue struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Value  float64 `json:"value"`
	// Episodes summarizes the per-episode estimates of the value; the
	// distance between their quartiles is the spread compare uses.
	Episodes *summary `json:"episodes,omitempty"`
	// Ops summarizes the individual operations behind a latency: count,
	// median and the highest percentile with ten samples beyond it.
	Ops *summary `json:"ops,omitempty"`
}

// runResult is everything one run of one workload reports.
type runResult struct {
	Workload   string           `json:"workload"`
	Trace      bool             `json:"trace"`
	Seed       int64            `json:"seed"`
	Scale      string           `json:"scale"`
	Sizes      sizes            `json:"sizes"`
	Seconds    float64          `json:"seconds"`
	Episodes   int              `json:"episodes"`
	Correct    bool             `json:"correct"`
	Attempted  int64            `json:"attempted"`
	Failed     int64            `json:"failed"`
	Violations []string         `json:"violations,omitempty"`
	Exact      []kv             `json:"exact"`
	Metrics    []metricValue    `json:"metrics"`
	Spans      []spanStats      `json:"spans,omitempty"`
	Counts     map[string]int64 `json:"counts,omitempty"`
}

func (r *runResult) metric(name string) *metricValue {
	for i := range r.Metrics {
		if r.Metrics[i].Name == name {
			return &r.Metrics[i]
		}
	}
	return nil
}

// runWorkload runs episodes of one workload and reduces them to a result.
// An untraced run reports the end-to-end metrics. A traced run alternates
// untraced and traced episodes of the same work, then runs one more traced
// episode with the layer probes, and reports the per-layer metrics;
// bench.trace_overhead_pct is the difference between the two kinds.
func runWorkload(opt options) (*runResult, *tracer, error) {
	wl := findWorkload(opt.workload)
	if wl == nil {
		return nil, nil, fmt.Errorf("unknown workload %q", opt.workload)
	}
	sz, ok := scales[opt.scale]
	if !ok {
		return nil, nil, fmt.Errorf("unknown scale %q", opt.scale)
	}
	if err := os.MkdirAll(opt.tmpBase, 0o755); err != nil {
		return nil, nil, err
	}
	tr := newTracer()
	var eps []*episode
	one := func(traced, probe bool) error {
		dir, err := os.MkdirTemp(opt.tmpBase, opt.workload+"-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		tr.on = traced
		defer func() { tr.on = false }()
		// Start every episode from a collected heap so one episode's
		// garbage is not charged to the next one's set-up.
		base := liveHeap()
		e := &env{seed: opt.seed, idx: int64(len(eps)), sz: sz, tr: tr, probe: probe, tmp: dir, heapBase: base, start: time.Now()}
		ep, err := wl.episode(e)
		if err != nil {
			return fmt.Errorf("%s episode %d: %w", opt.workload, len(eps), err)
		}
		ep.traced = traced
		eps = append(eps, ep)
		return nil
	}
	need := minEpisodes
	if opt.trace {
		need = 4 // two of each kind before the probe episode
	}
	var measured time.Duration
	for i := 0; i < need || measured.Seconds() < opt.seconds; i++ {
		if err := one(opt.trace && i%2 == 1, false); err != nil {
			return nil, nil, err
		}
		measured += sumDurations(eps[len(eps)-1].ops)
	}
	if opt.trace {
		if err := one(true, true); err != nil {
			return nil, nil, err
		}
	}
	res, err := reduce(wl, opt, sz, eps)
	if err != nil {
		return nil, nil, err
	}
	if opt.trace {
		res.Spans = tr.stats()
		res.Counts = tr.counts
	}
	return res, tr, nil
}

// rate is work per second over the steady window of a set of episodes.
func rate(eps []*episode) float64 {
	if len(eps) == 0 {
		return 0
	}
	ops := make([][]time.Duration, len(eps))
	for i, ep := range eps {
		ops[i] = ep.ops
	}
	return float64(eps[0].work) / sumDurations(steady(ops)).Seconds()
}

// latencies returns the episode's user-visible operation latencies.
func (ep *episode) latencies() []time.Duration {
	if ep.lat != nil {
		return ep.lat
	}
	return ep.ops
}

// reduce checks that the episodes did identical work and turns them into
// the run's metrics.
func reduce(wl *workloadDef, opt options, sz sizes, eps []*episode) (*runResult, error) {
	res := &runResult{
		Workload: wl.name, Trace: opt.trace, Seed: opt.seed, Scale: opt.scale, Sizes: sz,
		Seconds: opt.seconds, Episodes: len(eps), Exact: eps[0].exact,
	}
	var plain, traced []*episode
	for i, ep := range eps {
		res.Attempted += ep.attempted
		res.Failed += ep.failed
		for _, v := range ep.violations {
			res.Violations = append(res.Violations, fmt.Sprintf("episode %d: %s", i, v))
		}
		// Every episode is the same fixed work from the same seed, so the
		// exact-repeat values and op counts must agree; a difference is
		// nondeterminism in the program under test (or in the harness).
		if len(ep.ops) != len(eps[0].ops) || len(ep.latencies()) != len(eps[0].latencies()) || ep.work != eps[0].work {
			res.Violations = append(res.Violations, fmt.Sprintf("episode %d: %d ops / %d latencies / %d work, episode 0 had %d / %d / %d",
				i, len(ep.ops), len(ep.latencies()), ep.work, len(eps[0].ops), len(eps[0].latencies()), eps[0].work))
		}
		if a, b := fmt.Sprint(ep.exact), fmt.Sprint(eps[0].exact); a != b {
			res.Violations = append(res.Violations, fmt.Sprintf("episode %d: exact-repeat values %s differ from episode 0's %s", i, a, b))
		}
		if ep.traced {
			traced = append(traced, ep)
		} else {
			plain = append(plain, ep)
		}
	}
	if res.Attempted < 1 {
		return nil, fmt.Errorf("%s attempted no operations", wl.name)
	}
	res.Correct = len(res.Violations) == 0 && res.Failed == 0
	if len(res.Violations) > 0 {
		// Unequal op counts make the per-position reduction meaningless.
		return res, nil
	}
	if !opt.trace {
		res.Metrics = endToEndMetrics(plain)
		return res, nil
	}
	layer := eps[len(eps)-1].layer
	if layer == nil {
		return nil, fmt.Errorf("%s: probe episode reported no per-layer metrics", wl.name)
	}
	// The probe episode is left out so that both kinds are reduced over
	// the same number of episodes (a quartile of more samples sits lower).
	traced = traced[:len(traced)-1]
	if n := len(plain); n > len(traced) {
		plain = plain[:len(traced)]
	}
	if off, on := rate(plain), rate(traced); off > 0 {
		layer["bench.trace_overhead_pct"] = (1 - on/off) * 100
	}
	for _, s := range perLayer {
		v, ok := layer[s.name]
		delete(layer, s.name)
		if !ok {
			v = 0 // this workload does not run the layer
		}
		res.Metrics = append(res.Metrics, metricValue{Name: s.name, Unit: s.unit, Better: s.better, Value: finite(v)})
	}
	if len(layer) > 0 {
		var extra []string
		for k := range layer {
			extra = append(extra, k)
		}
		sort.Strings(extra)
		return nil, fmt.Errorf("%s reported undeclared per-layer metrics: %s", wl.name, strings.Join(extra, ", "))
	}
	return res, nil
}

// endToEndMetrics reduces untraced episodes to the six end-to-end metrics.
func endToEndMetrics(eps []*episode) []metricValue {
	per := map[string][]float64{}
	lats := make([][]time.Duration, len(eps))
	var pooled []float64
	for i, ep := range eps {
		lats[i] = ep.latencies()
		lm := durationsIn(lats[i], time.Millisecond)
		pooled = append(pooled, lm...)
		per["setup_s"] = append(per["setup_s"], ep.setup.Seconds())
		per["live_heap_mb"] = append(per["live_heap_mb"], ep.heapMB)
		per["work_per_s"] = append(per["work_per_s"], float64(ep.work)/sumDurations(ep.ops).Seconds())
		per["op_ms_p50"] = append(per["op_ms_p50"], median(lm))
		per["cpu_us_per_work"] = append(per["cpu_us_per_work"], us(ep.cpu)/float64(ep.work))
	}
	ops := summarize(pooled)
	out := make([]metricValue, 0, len(endToEnd))
	for _, s := range endToEnd {
		m := metricValue{Name: s.name, Unit: s.unit, Better: s.better}
		if v, ok := per[s.name]; ok {
			sm := summarize(v)
			sm.TailP, sm.Tail = 0, 0 // a tail of per-episode estimates is not a latency tail
			m.Value, m.Episodes = sm.P50, &sm
		}
		switch s.name {
		case "peak_rss_mb":
			m.Value = peakRSSMB()
		case "work_per_s":
			m.Value = rate(eps)
		case "op_ms_p50":
			m.Value, m.Ops = median(durationsIn(steady(lats), time.Millisecond)), &ops
		case "cpu_us_per_work":
			m.Value = quantile(sortedCopy(per[s.name]), undisturbed)
		}
		m.Value = finite(m.Value)
		out = append(out, m)
	}
	return out
}

// hostFacts are recorded in every result file; compare refuses to compare
// results whose NProc, GOMAXPROCS or GoVersion differ.
type hostFacts struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"git_commit"`
}

func collectHostFacts() hostFacts {
	return hostFacts{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		Commit:     gitCommit("."),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit reads HEAD of the repository at root without running git (the
// benchmark starts no processes it does not have to). A checkout that is
// not a git repository, or whose branch lives only in packed-refs, reports
// "unknown".
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	s := strings.TrimSpace(string(head))
	ref, ok := strings.CutPrefix(s, "ref: ")
	if !ok {
		return s
	}
	b, err := os.ReadFile(filepath.Join(root, ".git", filepath.FromSlash(ref)))
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}
