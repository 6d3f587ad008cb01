package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"sdfm/internal/controlplane"
	"sdfm/internal/core"
	"sdfm/internal/telemetry"
)

// contract mirrors BENCHMARK.json.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func loadContract(t *testing.T) *contract {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return &c
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestContractMatchesHarness holds BENCHMARK.json and the harness in step:
// same workloads, same metric names, units and directions, within the
// contract's limits.
func TestContractMatchesHarness(t *testing.T) {
	c := loadContract(t)
	if len(c.Paths) != 1 || c.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", c.Paths)
	}
	if c.RunSeconds < 1 || c.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", c.RunSeconds)
	}
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(c.Workloads), len(workloads))
	}
	for i, w := range c.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the harness %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(c.EndToEnd) > 16 || len(c.PerLayer) > 128 {
		t.Errorf("%d end-to-end / %d per-layer metrics exceed 16 / 128", len(c.EndToEnd), len(c.PerLayer))
	}
	seen := map[string]bool{}
	same := func(kind string, got []contractMetric, want []spec, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the harness", kind, len(got), len(want))
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit || m.Better != want[i].better {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s, %s], the harness %s [%s, %s]",
					kind, i, m.Name, m.Unit, m.Better, want[i].name, want[i].unit, want[i].better)
			}
			if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) {
				t.Errorf("%s: name %q or unit %q outside the contract's alphabet", kind, m.Name, m.Unit)
			}
			if seen[m.Name] {
				t.Errorf("name %q used twice", m.Name)
			}
			seen[m.Name] = true
			if bounded != (m.Bound != nil) {
				t.Errorf("%s %s: bound present = %v", kind, m.Name, m.Bound != nil)
			}
			if m.Bound != nil && (*m.Bound <= 0 || *m.Bound > 0.25) {
				t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, *m.Bound)
			}
		}
	}
	same("end_to_end", c.EndToEnd, endToEnd, true)
	same("per_layer", c.PerLayer, perLayer, false)
	var setup *contractMetric
	for i := range c.EndToEnd {
		if c.EndToEnd[i].Name == "setup_s" {
			setup = &c.EndToEnd[i]
		}
	}
	if setup == nil || setup.Unit != "s" || setup.Better != lower {
		t.Fatalf("setup_s [s, lower] missing")
	}
	for _, m := range c.EndToEnd {
		if *m.Bound > *setup.Bound {
			t.Errorf("%s has a larger bound than setup_s", m.Name)
		}
	}
}

// TestSmoke runs every workload at smoke size, untraced and traced, and
// asserts that exactly the names in BENCHMARK.json come out.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload; skipped under -short")
	}
	if raceEnabled {
		t.Skip("timing harness; skipped under -race")
	}
	c := loadContract(t)
	fingerprints := map[string]string{}
	for _, w := range c.Workloads {
		for _, traced := range []bool{false, true} {
			res, tr, err := runWorkload(options{
				workload: w.Name, seed: defaultSeed, seconds: 0, trace: traced, scale: "smoke", tmpBase: t.TempDir(),
			})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d violations=%v",
					w.Name, traced, res.Correct, res.Attempted, res.Failed, res.Violations)
			}
			want := c.EndToEnd
			if traced {
				want = c.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Fatalf("%s trace=%v: %d metrics emitted, BENCHMARK.json lists %d", w.Name, traced, len(res.Metrics), len(want))
			}
			for i, m := range res.Metrics {
				if m.Name != want[i].Name || m.Unit != want[i].Unit {
					t.Errorf("%s trace=%v: metric %d is %s [%s], BENCHMARK.json has %s [%s]",
						w.Name, traced, i, m.Name, m.Unit, want[i].Name, want[i].Unit)
				}
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s: %s = %v", w.Name, m.Name, m.Value)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, m.Name, m.Value)
				}
			}
			// Tracing must not change what the program computed.
			if fp, ok := fingerprints[w.Name]; ok && fp != res.Exact[0].Value {
				t.Errorf("%s: %s is %s traced, %s untraced", w.Name, res.Exact[0].Name, res.Exact[0].Value, fp)
			}
			fingerprints[w.Name] = res.Exact[0].Value
			if traced {
				var sb strings.Builder
				if err := tr.writeChrome(&sb); err != nil {
					t.Fatal(err)
				}
				var doc struct {
					TraceEvents []map[string]any `json:"traceEvents"`
				}
				if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil || len(doc.TraceEvents) == 0 {
					t.Errorf("%s: Chrome trace does not parse (%v) or is empty", w.Name, err)
				}
				if res.metric("bench.trace_overhead_pct") == nil {
					t.Errorf("%s: no bench.trace_overhead_pct", w.Name)
				}
			}
		}
	}
}

func violated(check func(ep *episode)) bool {
	ep := &episode{}
	check(ep)
	return len(ep.violations) > 0
}

// TestChecksTrip feeds every output check a falsified value next to a true
// one: a check that cannot fail checks nothing.
func TestChecksTrip(t *testing.T) {
	good := ingestTally{sent: 100, accepted: 90, dropped: 10,
		st: controlplane.IngestStats{Received: 100, Ingested: 88, RejectedCorrupt: 1, RejectedInvalid: 1, DroppedBackpressure: 10}}
	if violated(func(ep *episode) { checkConservation(ep, good) }) {
		t.Error("conservation check rejects a consistent tally")
	}
	falsify := map[string]func(*ingestTally){
		"sent":     func(x *ingestTally) { x.sent++ },
		"accepted": func(x *ingestTally) { x.accepted-- },
		"ingested": func(x *ingestTally) { x.st.Ingested-- },
		"received": func(x *ingestTally) { x.st.Received++ },
		"dropped":  func(x *ingestTally) { x.st.DroppedBackpressure-- },
	}
	for name, f := range falsify {
		bad := good
		f(&bad)
		if !violated(func(ep *episode) { checkConservation(ep, bad) }) {
			t.Errorf("conservation check accepts a falsified %s count", name)
		}
	}

	if violated(func(ep *episode) { checkSim(ep, nil, 0.5) }) {
		t.Error("sim check rejects a clean audit with coverage 0.5")
	}
	for _, cov := range []float64{0, 1, math.NaN()} {
		if !violated(func(ep *episode) { checkSim(ep, nil, cov) }) {
			t.Errorf("sim check accepts coverage %v", cov)
		}
	}
	if !violated(func(ep *episode) { checkSim(ep, []string{"bytes not conserved"}, 0.5) }) {
		t.Error("sim check accepts an audit violation")
	}

	tr := telemetry.NewTrace()
	entry := telemetry.Entry{
		Key: telemetry.JobKey{Cluster: "c", Machine: "m", Job: "j"}, TimestampSec: 300, IntervalMinutes: 5,
		WSSPages: 10, TotalPages: 100,
		ColdTails: make([]uint64, len(tr.Thresholds)), PromoTails: make([]uint64, len(tr.Thresholds)),
	}
	if err := tr.Append(entry); err != nil {
		t.Fatal(err)
	}
	if violated(func(ep *episode) { checkEntries(ep, tr.Entries, len(tr.Thresholds)) }) {
		t.Error("entry check rejects a valid entry")
	}
	corrupt := append([]telemetry.Entry(nil), tr.Entries...)
	corrupt[0].WSSPages++ // stale checksum
	if !violated(func(ep *episode) { checkEntries(ep, corrupt, len(tr.Thresholds)) }) {
		t.Error("entry check accepts a corrupted entry")
	}
	if !violated(func(ep *episode) { checkEntries(ep, nil, len(tr.Thresholds)) }) {
		t.Error("entry check accepts an empty export")
	}

	d := decision{core.Params{K: 90, S: time.Hour}, core.Params{K: 90, S: time.Hour}, true, ""}
	rr := controlplane.RoundReport{Candidate: d.candidate, Chosen: d.chosen, Accepted: true}
	if violated(func(ep *episode) { checkRounds(ep, []decision{d}, []controlplane.RoundReport{rr}) }) {
		t.Error("round check rejects a matching history")
	}
	other := d
	other.chosen.K = 91
	if !violated(func(ep *episode) { checkRounds(ep, []decision{other}, []controlplane.RoundReport{rr}) }) {
		t.Error("round check accepts a falsified decision")
	}
	if !violated(func(ep *episode) { checkRounds(ep, nil, nil) }) {
		t.Error("round check accepts a replay without rounds")
	}
	if violated(func(ep *episode) { checkOffline(ep, []decision{d}, []decision{d}) }) {
		t.Error("offline check rejects equal decisions")
	}
	if !violated(func(ep *episode) { checkOffline(ep, []decision{d}, []decision{other}) }) ||
		!violated(func(ep *episode) { checkOffline(ep, []decision{d}, nil) }) {
		t.Error("offline check accepts a differing decision")
	}
	if decisionsHash([]decision{d}) == decisionsHash([]decision{other}) {
		t.Error("decisions hash ignores Chosen")
	}
}

// TestReduceCatchesNondeterminism: episodes of one run must agree on their
// exact-repeat values and their work.
func TestReduceCatchesNondeterminism(t *testing.T) {
	ep := func(fp string, work int64) *episode {
		return &episode{
			setup: time.Second, ops: []time.Duration{time.Millisecond, 2 * time.Millisecond}, work: work,
			cpu: time.Millisecond, heapMB: 1, attempted: 2, exact: []kv{{"sim.fingerprint", fp}},
		}
	}
	opt := options{workload: "sim_fleet", scale: "smoke"}
	wl := findWorkload(opt.workload)
	res, err := reduce(wl, opt, scales["smoke"], []*episode{ep("aa", 2), ep("aa", 2), ep("aa", 2)})
	if err != nil || !res.Correct || len(res.Metrics) != len(endToEnd) {
		t.Fatalf("identical episodes: err=%v correct=%v metrics=%d", err, res.Correct, len(res.Metrics))
	}
	if got := res.metric("work_per_s").Value; math.Abs(got-2/0.003) > 1e-6 {
		t.Errorf("work_per_s = %v, want %v", got, 2/0.003)
	}
	for _, odd := range []*episode{ep("bb", 2), ep("aa", 3)} {
		res, err := reduce(wl, opt, scales["smoke"], []*episode{ep("aa", 2), odd, ep("aa", 2)})
		if err != nil || res.Correct {
			t.Errorf("an episode that differs went unnoticed (err=%v)", err)
		}
	}
}

func TestSteadyDropsOneEpisodesBurst(t *testing.T) {
	ms := time.Millisecond
	eps := [][]time.Duration{
		{10 * ms, 50 * ms, 10 * ms},
		{10 * ms, 50 * ms, 900 * ms}, // host noise hit this episode's last op
		{11 * ms, 50 * ms, 10 * ms},
	}
	if got := sumDurations(steady(eps)); got != 70*ms {
		t.Errorf("steady window = %v, want 70ms: the recurring 50 ms op stays, the one-off 900 ms does not", got)
	}
}

func TestTailPercentile(t *testing.T) {
	for n, want := range map[int]float64{5: 0, 39: 0, 40: 75, 100: 90, 200: 95, 1000: 99, 10000: 99.9} {
		if got := tailPercentile(n); got != want {
			t.Errorf("tailPercentile(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestVerdict(t *testing.T) {
	mv := func(better string, v, q1, q3 float64) *metricValue {
		return &metricValue{Better: better, Value: v, Episodes: &summary{N: 4, P50: v, Q1: q1, Q3: q3}}
	}
	cases := []struct {
		base, cur *metricValue
		want      string
	}{
		{mv(higher, 100, 99, 101), mv(higher, 120, 119, 121), "improved"},
		{mv(higher, 100, 99, 101), mv(higher, 85, 84, 86), "regressed"},
		{mv(higher, 100, 99, 101), mv(higher, 95, 94, 96), "unchanged"},
		{mv(lower, 100, 99, 101), mv(lower, 115, 114, 116), "regressed"},
		{mv(lower, 100, 99, 101), mv(lower, 80, 79, 81), "improved"},
		{mv(lower, 100, 70, 130), mv(lower, 115, 114, 116), "unresolved"},
	}
	for i, c := range cases {
		if _, got := verdict(c.base, c.cur, 0.10); got != c.want {
			t.Errorf("case %d: verdict %s, want %s", i, got, c.want)
		}
	}
}
