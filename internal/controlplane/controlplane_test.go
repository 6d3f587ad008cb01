package controlplane

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"sdfm/internal/core"
	"sdfm/internal/fleet"
	"sdfm/internal/obs"
	"sdfm/internal/telemetry"
	"sdfm/internal/tuner"
)

// fastTuner keeps per-round GP searches cheap in tests.
var fastTuner = tuner.Config{InitSamples: 3, Iterations: 2, Seed: 7}

func testTrace(t *testing.T, clusters, machines, jobs int, dur time.Duration, seed int64) *telemetry.Trace {
	t.Helper()
	tr, err := fleet.Generate(fleet.Config{
		Clusters:           clusters,
		MachinesPerCluster: machines,
		JobsPerMachine:     jobs,
		Duration:           dur,
		Interval:           5 * time.Minute,
		Seed:               seed,
	})
	if err != nil {
		t.Fatalf("fleet.Generate: %v", err)
	}
	if len(tr.Entries) == 0 {
		t.Fatal("fleet.Generate: empty trace")
	}
	return tr
}

func newTestController(t *testing.T, cfg Config) *Controller {
	t.Helper()
	if cfg.Tuner == (tuner.Config{}) {
		cfg.Tuner = fastTuner
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(c.Close)
	return c
}

// TestNewRejectsSecondSLO: the tuner judges candidates under the round's
// SLO, the one its replays and rollout checks use, so a tuner SLO other
// than zero or that one is refused.
func TestNewRejectsSecondSLO(t *testing.T) {
	loose := core.SLO{TargetRatePerMin: 0.01, MinThreshold: core.DefaultSLO.MinThreshold}
	for _, cfg := range []Config{
		{Tuner: tuner.Config{SLO: loose}},
		{SLO: loose, Tuner: tuner.Config{SLO: core.DefaultSLO}},
	} {
		if err := cfg.Validate(); err == nil {
			t.Errorf("Validate accepted round SLO %+v with tuner SLO %+v", cfg.SLO, cfg.Tuner.SLO)
		}
	}
	for _, cfg := range []Config{
		{SLO: loose},
		{SLO: loose, Tuner: tuner.Config{SLO: loose}},
		{Tuner: tuner.Config{SLO: core.DefaultSLO}},
	} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("round SLO %+v, tuner SLO %+v: %v", cfg.SLO, cfg.Tuner.SLO, err)
		}
	}
}

// TestNewRejectsBadRings: each ring must hold a fraction in (0, 1] and be
// no smaller than the ring before it, or the controller would leave more
// agents on the candidate than the ring whose health it judges.
func TestNewRejectsBadRings(t *testing.T) {
	for _, stages := range [][]tuner.RolloutStage{
		{{Name: "canary", Fraction: 0.5}, {Name: "fleet", Fraction: 0.1}},
		{{Name: "canary", Fraction: 0}, {Name: "fleet", Fraction: 1}},
		{{Name: "fleet", Fraction: 1.5}},
	} {
		if c, err := New(Config{Tuner: fastTuner, Stages: stages}); err == nil {
			c.Close()
			t.Errorf("New accepted rings %+v", stages)
		}
	}
}

func TestRegisterAssignsIncumbent(t *testing.T) {
	c := newTestController(t, Config{})
	resp, err := c.Register(RegisterRequest{AgentID: "cluster-00/m0000"})
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	if resp.Params != core.DefaultParams {
		t.Errorf("initial assignment = %+v, want incumbent %+v", resp.Params, core.DefaultParams)
	}
	// Re-registration (agent restart) is idempotent.
	again, err := c.Register(RegisterRequest{AgentID: "cluster-00/m0000"})
	if err != nil {
		t.Fatalf("re-Register: %v", err)
	}
	if again != resp {
		t.Errorf("re-registration changed assignment: %+v vs %+v", again, resp)
	}
	if len(c.Status().Agents) != 1 {
		t.Errorf("agents = %d after duplicate registration, want 1", len(c.Status().Agents))
	}
	if _, err := c.Register(RegisterRequest{}); err == nil {
		t.Error("Register with empty agent id succeeded")
	}
}

func TestUnknownAgentRejected(t *testing.T) {
	c := newTestController(t, Config{})
	if _, err := c.Report(ReportRequest{AgentID: "ghost"}); !errors.Is(err, ErrUnknownAgent) {
		t.Errorf("Report from unregistered agent: err = %v, want ErrUnknownAgent", err)
	}
	if _, err := c.Poll(PollRequest{AgentID: "ghost"}); !errors.Is(err, ErrUnknownAgent) {
		t.Errorf("Poll from unregistered agent: err = %v, want ErrUnknownAgent", err)
	}
}

func TestReportBackpressure(t *testing.T) {
	c := newTestController(t, Config{QueueCap: 4})
	if _, err := c.Register(RegisterRequest{AgentID: "a"}); err != nil {
		t.Fatal(err)
	}
	tr := testTrace(t, 1, 1, 2, time.Hour, 1)
	batch := tr.Entries
	if len(batch) < 6 {
		t.Fatalf("need >= 6 entries, got %d", len(batch))
	}
	resp, err := c.Report(ReportRequest{AgentID: "a", Entries: batch[:6]})
	if err != nil {
		t.Fatalf("Report: %v", err)
	}
	if resp.Accepted != 4 || resp.Dropped != 2 || resp.QueueFree != 0 {
		t.Errorf("backpressure = accepted %d dropped %d free %d, want 4/2/0",
			resp.Accepted, resp.Dropped, resp.QueueFree)
	}
	// A full queue drops everything.
	resp, err = c.Report(ReportRequest{AgentID: "a", Entries: batch[:3]})
	if err != nil {
		t.Fatalf("Report: %v", err)
	}
	if resp.Accepted != 0 || resp.Dropped != 3 {
		t.Errorf("full-queue report = accepted %d dropped %d, want 0/3", resp.Accepted, resp.Dropped)
	}
	st := c.Status()
	if st.Ingest.DroppedBackpressure != 5 {
		t.Errorf("lifetime backpressure drops = %d, want 5", st.Ingest.DroppedBackpressure)
	}
	// A Tick frees the queue; the next report is accepted again.
	c.Tick()
	resp, err = c.Report(ReportRequest{AgentID: "a", Entries: batch[:3]})
	if err != nil {
		t.Fatalf("Report after tick: %v", err)
	}
	if resp.Accepted != 3 || resp.Dropped != 0 {
		t.Errorf("post-drain report = accepted %d dropped %d, want 3/0", resp.Accepted, resp.Dropped)
	}
}

func TestTickValidatesEntries(t *testing.T) {
	c := newTestController(t, Config{})
	if _, err := c.Register(RegisterRequest{AgentID: "a"}); err != nil {
		t.Fatal(err)
	}
	tr := testTrace(t, 1, 1, 2, time.Hour, 1)
	valid := tr.Entries[0]

	corrupt := tr.Entries[1]
	corrupt.ColdTails = append([]uint64(nil), corrupt.ColdTails...)
	corrupt.ColdTails[0] ^= 0xdeadbeef // checksum now stale

	invalid := tr.Entries[2]
	invalid.ColdTails = invalid.ColdTails[:1] // wrong tail count

	// An interval never ends before simulated time zero; believed, this
	// one would sit first in the window and stretch its span by two hours.
	negative := tr.Entries[3]
	negative.TimestampSec = -7200
	negative.Checksum = negative.ComputeChecksum()

	// Every producer stamps its entries, so an unstamped one is damage,
	// not a legacy format to trust.
	unstamped := tr.Entries[4]
	unstamped.Checksum = 0

	if _, err := c.Report(ReportRequest{AgentID: "a", Entries: []telemetry.Entry{negative, valid, corrupt, invalid, unstamped}}); err != nil {
		t.Fatalf("Report: %v", err)
	}
	rep := c.Tick()
	if rep.Drained != 1 || rep.RejectedCorrupt != 2 || rep.RejectedInvalid != 2 {
		t.Errorf("Tick = drained %d corrupt %d invalid %d, want 1/2/2",
			rep.Drained, rep.RejectedCorrupt, rep.RejectedInvalid)
	}
	st := c.Status()
	if st.Ingest.Ingested != 1 || st.Ingest.RejectedCorrupt != 2 || st.Ingest.RejectedInvalid != 2 {
		t.Errorf("ingest stats = %+v, want 1 ingested, 2 corrupt, 2 invalid", st.Ingest)
	}
	if st.WindowEntries != 1 || st.WindowStartSec != valid.TimestampSec || st.WindowEndSec != valid.TimestampSec {
		t.Errorf("window = [%d, %d] with %d entries, want [%d, %d] with 1",
			st.WindowStartSec, st.WindowEndSec, st.WindowEntries, valid.TimestampSec, valid.TimestampSec)
	}
}

// TestTickRejectsNonFiniteEntries: an entry whose interval or
// compressible fraction is NaN or infinite carries a good checksum, so
// only validation stands between it and the window, where it would read
// every promotion rate as 0 or NaN and let any candidate pass rollout.
// Each counts under reason="invalid".
func TestTickRejectsNonFiniteEntries(t *testing.T) {
	hub := obs.NewMulti()
	c := newTestController(t, Config{Obs: hub.Observer("controlplane")})
	if _, err := c.Register(RegisterRequest{AgentID: "a"}); err != nil {
		t.Fatal(err)
	}
	tr := testTrace(t, 1, 1, 2, time.Hour, 1)
	nan, inf := math.NaN(), math.Inf(1)
	bad := []func(*telemetry.Entry){
		func(e *telemetry.Entry) { e.IntervalMinutes = nan },
		func(e *telemetry.Entry) { e.IntervalMinutes = inf },
		func(e *telemetry.Entry) { e.CompressibleFrac = nan },
		func(e *telemetry.Entry) { e.CompressibleFrac = inf },
	}
	entries := []telemetry.Entry{tr.Entries[0]}
	for i, mutate := range bad {
		e := tr.Entries[1+i]
		mutate(&e)
		e.Checksum = e.ComputeChecksum()
		entries = append(entries, e)
	}
	if _, err := c.Report(ReportRequest{AgentID: "a", Entries: entries}); err != nil {
		t.Fatalf("Report: %v", err)
	}
	if rep := c.Tick(); rep.Drained != 1 || rep.RejectedCorrupt != 0 || rep.RejectedInvalid != len(bad) {
		t.Errorf("Tick = drained %d corrupt %d invalid %d, want 1/0/%d",
			rep.Drained, rep.RejectedCorrupt, rep.RejectedInvalid, len(bad))
	}
	var sb strings.Builder
	if err := c.RenderMetrics(hub, &sb); err != nil {
		t.Fatalf("RenderMetrics: %v", err)
	}
	want := fmt.Sprintf(`sdfm_cp_entries_rejected_total{reason="invalid"} %d`, len(bad))
	if !strings.Contains(sb.String(), want+"\n") {
		t.Errorf("metrics exposition lacks %q", want)
	}
}

// TestTickVerifiesEveryLane: Tick checksums its drained batch four
// entries at a time (telemetry.AppendChecksums). A 9-entry report holds two
// lock-step groups and a one-entry remainder; each lane position carries
// one damaged entry, the two groups in complementary lanes, so a sum
// credited to the wrong lane marks an intact entry corrupt. The remainder
// is ragged. Tick must count and ingest exactly what one-at-a-time
// verification does.
func TestTickVerifiesEveryLane(t *testing.T) {
	c := newTestController(t, Config{})
	if _, err := c.Register(RegisterRequest{AgentID: "a"}); err != nil {
		t.Fatal(err)
	}
	tr := testTrace(t, 1, 1, 2, time.Hour, 1)
	batch := make([]telemetry.Entry, 9)
	for i := range batch {
		batch[i] = tr.Entries[i]
		batch[i].ColdTails = slices.Clone(batch[i].ColdTails)
	}
	batch[0].Checksum ^= 1                      // group 1, lane 0: damaged stamp
	batch[2].WSSPages++                         // group 1, lane 2: stale stamp
	batch[5].ColdTails[0]++                     // group 2, lane 1: stale stamp
	batch[7].Checksum = 0                       // group 2, lane 3: unstamped
	batch[8].ColdTails = batch[8].ColdTails[:4] // remainder: ragged
	batch[8].Checksum = batch[8].ComputeChecksum()

	var want []telemetry.Entry
	var corrupt, invalid int
	for i := range batch {
		switch {
		case batch[i].Validate(len(telemetry.DefaultThresholds)) != nil:
			invalid++
		case batch[i].VerifyChecksum() != nil:
			corrupt++
		default:
			want = append(want, batch[i])
		}
	}
	if corrupt != 4 || invalid != 1 {
		t.Fatalf("fixture has %d corrupt and %d invalid entries, want 4 and 1", corrupt, invalid)
	}

	if _, err := c.Report(ReportRequest{AgentID: "a", Entries: batch}); err != nil {
		t.Fatalf("Report: %v", err)
	}
	rep := c.Tick()
	if rep.Drained != len(want) || rep.RejectedCorrupt != corrupt || rep.RejectedInvalid != invalid {
		t.Errorf("Tick = drained %d corrupt %d invalid %d, want %d/%d/%d",
			rep.Drained, rep.RejectedCorrupt, rep.RejectedInvalid, len(want), corrupt, invalid)
	}
	if got := windowEntries(c); !reflect.DeepEqual(got, want) {
		t.Errorf("window holds %d entries, not the %d that verify one at a time", len(got), len(want))
	}
}

func TestTickBatchBound(t *testing.T) {
	c := newTestController(t, Config{BatchSize: 2})
	if _, err := c.Register(RegisterRequest{AgentID: "a"}); err != nil {
		t.Fatal(err)
	}
	tr := testTrace(t, 1, 1, 2, time.Hour, 1)
	if _, err := c.Report(ReportRequest{AgentID: "a", Entries: tr.Entries[:5]}); err != nil {
		t.Fatal(err)
	}
	if rep := c.Tick(); rep.Drained != 2 || rep.Remaining != 3 {
		t.Errorf("first Tick = drained %d remaining %d, want 2/3", rep.Drained, rep.Remaining)
	}
	if rep := c.Tick(); rep.Drained != 2 || rep.Remaining != 1 {
		t.Errorf("second Tick = drained %d remaining %d, want 2/1", rep.Drained, rep.Remaining)
	}
}

func TestRunRoundOnEmptyWindow(t *testing.T) {
	c := newTestController(t, Config{})
	if _, err := c.RunRound(); !errors.Is(err, ErrNoTelemetry) {
		t.Errorf("RunRound on empty window: err = %v, want ErrNoTelemetry", err)
	}
}

func TestSimRunsRoundsAndConverges(t *testing.T) {
	tr := testTrace(t, 2, 2, 2, 8*time.Hour, 3)
	c := newTestController(t, Config{RoundEvery: 3 * time.Hour})
	rep, err := RunSim(c, tr, SimConfig{})
	if err != nil {
		t.Fatalf("RunSim: %v", err)
	}
	if rep.Agents != 4 {
		t.Errorf("agents = %d, want 4", rep.Agents)
	}
	if rep.WireDropped != 0 || rep.WireCorrupted != 0 || rep.BackpressureDropped != 0 {
		t.Errorf("clean run damaged entries: %+v", rep)
	}
	if rep.Accepted != rep.Sent || rep.Sent != len(tr.Entries) {
		t.Errorf("accepted %d / sent %d / trace %d, want all equal", rep.Accepted, rep.Sent, len(tr.Entries))
	}
	// 8 h of telemetry with 3 h windows: two full rounds.
	if len(rep.Rounds) != 2 {
		t.Fatalf("rounds = %d, want 2", len(rep.Rounds))
	}
	for i, rr := range rep.Rounds {
		if rr.Round != i+1 {
			t.Errorf("round %d numbered %d", i, rr.Round)
		}
		if rr.Entries == 0 || rr.Jobs == 0 || rr.TunerEvals == 0 {
			t.Errorf("round %d: empty window judged: %+v", i, rr)
		}
		if rr.Completeness <= 0 || rr.Completeness > 1 {
			t.Errorf("round %d: completeness %v outside (0, 1]", i, rr.Completeness)
		}
		if err := rr.Chosen.Validate(); err != nil {
			t.Errorf("round %d: chosen params invalid: %v", i, err)
		}
	}
	// The fleet converged on the last decision: every agent runs the
	// incumbent, and the incumbent is the last round's choice.
	st := c.Status()
	last := rep.Rounds[len(rep.Rounds)-1]
	if st.Incumbent != last.Chosen {
		t.Errorf("incumbent %+v != last chosen %+v", st.Incumbent, last.Chosen)
	}
	for _, a := range st.Agents {
		if a.Params != st.Incumbent {
			t.Errorf("agent %s on %+v, fleet incumbent %+v", a.ID, a.Params, st.Incumbent)
		}
	}
}

func TestSimDeterministic(t *testing.T) {
	tr := testTrace(t, 2, 2, 2, 7*time.Hour, 5)
	run := func() (SimReport, Status) {
		c := newTestController(t, Config{RoundEvery: 3 * time.Hour})
		rep, err := RunSim(c, tr, SimConfig{})
		if err != nil {
			t.Fatalf("RunSim: %v", err)
		}
		return rep, c.Status()
	}
	rep1, st1 := run()
	rep2, st2 := run()
	if !reflect.DeepEqual(rep1, rep2) {
		t.Errorf("sim reports differ across identical runs:\n%+v\n%+v", rep1, rep2)
	}
	if !reflect.DeepEqual(st1, st2) {
		t.Errorf("controller status differs across identical runs")
	}
}

func TestDrainFlushesAndSeals(t *testing.T) {
	c := newTestController(t, Config{BatchSize: 2})
	if _, err := c.Register(RegisterRequest{AgentID: "a"}); err != nil {
		t.Fatal(err)
	}
	tr := testTrace(t, 1, 1, 2, time.Hour, 1)
	if _, err := c.Report(ReportRequest{AgentID: "a", Entries: tr.Entries[:7]}); err != nil {
		t.Fatal(err)
	}
	rep := c.Drain()
	if rep.Drained != 7 {
		t.Errorf("drained %d, want 7", rep.Drained)
	}
	if rep.Ticks < 4 {
		t.Errorf("drain took %d ticks; batch bound 2 over 7 entries needs >= 4", rep.Ticks)
	}
	if _, err := c.Report(ReportRequest{AgentID: "a", Entries: tr.Entries[:1]}); !errors.Is(err, ErrDraining) {
		t.Errorf("Report while draining: err = %v, want ErrDraining", err)
	}
	if _, err := c.Register(RegisterRequest{AgentID: "b"}); !errors.Is(err, ErrDraining) {
		t.Errorf("Register while draining: err = %v, want ErrDraining", err)
	}
	if st := c.Status(); !st.Draining || st.WindowEntries != 7 {
		t.Errorf("post-drain status: draining=%v windowEntries=%d, want true/7", st.Draining, st.WindowEntries)
	}
}

func TestMetricsExposition(t *testing.T) {
	hub := obs.NewMulti()
	tr := testTrace(t, 1, 2, 2, 4*time.Hour, 2)
	c := newTestController(t, Config{RoundEvery: 3 * time.Hour, Obs: hub.Observer("controlplane")})
	if _, err := RunSim(c, tr, SimConfig{}); err != nil {
		t.Fatalf("RunSim: %v", err)
	}
	var sb strings.Builder
	if err := c.RenderMetrics(hub, &sb); err != nil {
		t.Fatalf("RenderMetrics: %v", err)
	}
	out := sb.String()
	for _, want := range []string{
		"sdfm_cp_agents",
		"sdfm_cp_entries_ingested_total",
		`sdfm_cp_entries_dropped_total{reason="backpressure"`,
		`sdfm_cp_entries_rejected_total{reason="corrupt"`,
		"sdfm_cp_rounds_total",
		"sdfm_cp_deployed_k",
		"sdfm_cp_round_gap_intervals",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
}
