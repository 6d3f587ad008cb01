package controlplane

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"sdfm/internal/controlplane/ckpt"
	"sdfm/internal/core"
	"sdfm/internal/fault"
	"sdfm/internal/obs"
	"sdfm/internal/telemetry"
	"sdfm/internal/tuner"
)

// ckptTestConfig is the shared campaign configuration for the
// kill-restore tests: small enough to run several rounds quickly,
// realistic enough (multiple agents, staged rings) to exercise every
// restored field.
func ckptTestConfig(dir string) Config {
	tcfg := fastTuner
	tcfg.SLO = core.DefaultSLO
	return Config{
		SLO:       core.DefaultSLO,
		Incumbent: core.DefaultParams,
		Tuner:     tcfg,
		Stages: []tuner.RolloutStage{
			{Name: "canary", Fraction: 0.25},
			{Name: "fleet", Fraction: 1.0},
		},
		RoundEvery:      3 * time.Hour,
		CheckpointDir:   dir,
		CheckpointEvery: time.Hour,
	}
}

// replayCells groups a trace the way RunSim does: interval timestamps in
// ascending order, one agent per (cluster, machine), trace order
// preserved within each (timestamp, agent) cell.
type replayCells struct {
	tsList   []int64
	agentIDs []string
	groups   map[string]map[int64][]telemetry.Entry
}

func groupTrace(tr *telemetry.Trace) replayCells {
	rc := replayCells{groups: make(map[string]map[int64][]telemetry.Entry)}
	tsSeen := make(map[int64]bool)
	for _, e := range tr.Entries {
		id := e.Key.Cluster + "/" + e.Key.Machine
		if !tsSeen[e.TimestampSec] {
			tsSeen[e.TimestampSec] = true
			rc.tsList = append(rc.tsList, e.TimestampSec)
		}
		byTS, ok := rc.groups[id]
		if !ok {
			byTS = make(map[int64][]telemetry.Entry)
			rc.groups[id] = byTS
			rc.agentIDs = append(rc.agentIDs, id)
		}
		byTS[e.TimestampSec] = append(byTS[e.TimestampSec], e)
	}
	sort.Slice(rc.tsList, func(i, j int) bool { return rc.tsList[i] < rc.tsList[j] })
	sort.Strings(rc.agentIDs)
	return rc
}

// registerAgents registers (or re-registers) every agent over loopback.
func registerAgents(t *testing.T, c *Controller, rc replayCells) map[string]*Agent {
	t.Helper()
	lb := NewLoopback(c)
	agents := make(map[string]*Agent, len(rc.agentIDs))
	for _, id := range rc.agentIDs {
		a := NewAgent(id, lb)
		if err := a.Register(context.Background()); err != nil {
			t.Fatalf("register %s: %v", id, err)
		}
		agents[id] = a
	}
	return agents
}

// sendInterval delivers one interval's reports (no Tick).
func sendInterval(t *testing.T, agents map[string]*Agent, rc replayCells, ts int64) {
	t.Helper()
	for _, id := range rc.agentIDs {
		batch := rc.groups[id][ts]
		if len(batch) == 0 {
			continue
		}
		if _, err := agents[id].Report(context.Background(), batch); err != nil {
			t.Fatalf("agent %s report at t=%ds: %v", id, ts, err)
		}
	}
}

// replayIntervals replays intervals [from, to): reports then one Tick
// per interval, the discrete-time equivalent of the daemon's ticker.
func replayIntervals(t *testing.T, c *Controller, agents map[string]*Agent, rc replayCells, from, to int) {
	t.Helper()
	for _, ts := range rc.tsList[from:to] {
		sendInterval(t, agents, rc, ts)
		c.Tick()
	}
}

func roundsEqual(t *testing.T, got, want []RoundReport, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rounds, want %d", label, len(got), len(want))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("%s: round %d diverged:\n got %+v\nwant %+v", label, i+1, got[i], want[i])
		}
	}
}

// TestKillRestoreEquivalence is the tentpole's correctness bar: a
// controller checkpointed mid-campaign — mid-window, with entries still
// sitting acked-but-undrained in agent queues — then restored into a
// fresh process must finish the campaign with byte-identical round
// decisions and final incumbent vs. one that never went down.
func TestKillRestoreEquivalence(t *testing.T) {
	tr := testTrace(t, 1, 3, 3, 12*time.Hour, 7)
	rc := groupTrace(tr)
	if len(rc.tsList) < 20 {
		t.Fatalf("trace has only %d intervals", len(rc.tsList))
	}

	// Baseline: one controller, never interrupted, no checkpointing.
	cfg := ckptTestConfig("")
	base := newTestController(t, cfg)
	baseAgents := registerAgents(t, base, rc)
	cut := len(rc.tsList) * 5 / 8
	replayIntervals(t, base, baseAgents, rc, 0, cut)
	sendInterval(t, baseAgents, rc, rc.tsList[cut])
	stCut := base.Status() // the state the interrupted controller dies in
	base.Tick()
	replayIntervals(t, base, baseAgents, rc, cut+1, len(rc.tsList))
	if len(base.Rounds()) < 2 {
		t.Fatalf("baseline ran %d rounds; need >= 2 to exercise incumbent chaining", len(base.Rounds()))
	}

	// Interrupted: same campaign, but the controller dies right after
	// acking interval `cut`'s reports — before the Tick that would drain
	// them — with a final checkpoint (the graceful-drain path; the
	// SIGKILL path, which recovers from a *periodic* checkpoint, is
	// exercised against the real binary in cmd/sdfmd's restart tests).
	dir := t.TempDir()
	cfg = ckptTestConfig(dir)
	c1 := newTestController(t, cfg)
	agents1 := registerAgents(t, c1, rc)
	replayIntervals(t, c1, agents1, rc, 0, cut)
	sendInterval(t, agents1, rc, rc.tsList[cut])
	if _, err := c1.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	// c1 is dead. Boot its successor from disk.
	c2, rep, err := Restore(cfg)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	t.Cleanup(c2.Close)
	if !rep.Restored {
		t.Fatal("Restore found no checkpoint")
	}
	if rep.QueuedEntries == 0 {
		t.Fatal("checkpoint captured no queued entries; the cut was supposed to land mid-interval")
	}
	// The window's bounds are derived from the restored entries, not stored.
	if stCut.WindowEntries == 0 {
		t.Fatal("the cut landed on an empty window; the bounds check would prove nothing")
	}
	if st := c2.Status(); st.WindowStartSec != stCut.WindowStartSec ||
		st.WindowEndSec != stCut.WindowEndSec || st.WindowEntries != stCut.WindowEntries {
		t.Errorf("restored window [%d, %d] with %d entries, want [%d, %d] with %d",
			st.WindowStartSec, st.WindowEndSec, st.WindowEntries,
			stCut.WindowStartSec, stCut.WindowEndSec, stCut.WindowEntries)
	}
	agents2 := registerAgents(t, c2, rc) // re-registration is idempotent reconciliation
	c2.Tick()                            // the Tick c1 never got to run
	replayIntervals(t, c2, agents2, rc, cut+1, len(rc.tsList))

	roundsEqual(t, c2.Rounds(), base.Rounds(), "restored controller")
	if got, want := c2.Incumbent(), base.Incumbent(); got != want {
		t.Errorf("final incumbent %+v, want %+v", got, want)
	}
	st, stBase := c2.Status(), base.Status()
	if st.Ingest != stBase.Ingest {
		t.Errorf("lifetime ingest counters diverged: %+v vs %+v", st.Ingest, stBase.Ingest)
	}
	if st.Epoch != stBase.Epoch {
		t.Errorf("epoch %d, want %d", st.Epoch, stBase.Epoch)
	}
}

// TestCheckpointingIsObservationOnly pins that enabling checkpoints
// changes nothing about the campaign: same trace, same config apart from
// CheckpointDir, identical rounds and incumbent.
func TestCheckpointingIsObservationOnly(t *testing.T) {
	tr := testTrace(t, 1, 2, 3, 9*time.Hour, 11)
	plain := newTestController(t, ckptTestConfig(""))
	repPlain, err := RunSim(plain, tr, SimConfig{})
	if err != nil {
		t.Fatalf("RunSim: %v", err)
	}
	ckpted := newTestController(t, ckptTestConfig(t.TempDir()))
	repCkpt, err := RunSim(ckpted, tr, SimConfig{})
	if err != nil {
		t.Fatalf("RunSim: %v", err)
	}
	roundsEqual(t, repCkpt.Rounds, repPlain.Rounds, "checkpointed controller")
	if got, want := ckpted.Incumbent(), plain.Incumbent(); got != want {
		t.Errorf("incumbent %+v, want %+v", got, want)
	}
}

// TestPeriodicCheckpointCadence pins the telemetry-time trigger: with
// CheckpointEvery = 1h over a 9h trace, Tick writes snapshots as the
// telemetry clock advances, generations are contiguous, and Prune keeps
// the directory bounded.
func TestPeriodicCheckpointCadence(t *testing.T) {
	tr := testTrace(t, 1, 2, 2, 9*time.Hour, 3)
	dir := t.TempDir()
	cfg := ckptTestConfig(dir)
	cfg.CheckpointKeep = 2
	c := newTestController(t, cfg)
	rep, err := RunSim(c, tr, SimConfig{})
	if err != nil {
		t.Fatalf("RunSim: %v", err)
	}
	_ = rep
	c.Close() // periodic writes are asynchronous; join before reading the dir
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) == 0 || len(ents) > 2 {
		t.Fatalf("directory holds %d checkpoints, want 1..2 (CheckpointKeep=2)", len(ents))
	}
	s, frep, err := ckpt.Restore(dir)
	if err != nil || !frep.Restored {
		t.Fatalf("Restore: %v (restored=%v)", err, frep.Restored)
	}
	// 9h of telemetry at a 1h cadence: several generations must have
	// been cut, not just one final flush.
	if s.Generation < 4 {
		t.Fatalf("newest generation %d; a 9h trace at 1h cadence should cut more", s.Generation)
	}
}

// TestCheckpointConcurrentIngest runs reporters and the tick loop on
// separate goroutines with a tight checkpoint cadence, so background
// snapshot encoders read their zero-copy view of the window while ingest
// keeps appending past it. Under -race this pins the append-only
// aliasing discipline; the final restore proves the concurrent writes
// still produced a valid, complete checkpoint.
func TestCheckpointConcurrentIngest(t *testing.T) {
	tr := testTrace(t, 1, 4, 2, 24*time.Hour, 9)
	rc := groupTrace(tr)
	dir := t.TempDir()
	cfg := ckptTestConfig(dir)
	cfg.RoundEvery = 1 << 30 * time.Second // never round: the window only ever grows
	cfg.CheckpointEvery = 30 * time.Minute
	c := newTestController(t, cfg)
	agents := registerAgents(t, c, rc)

	var wg sync.WaitGroup
	errs := make(chan error, len(rc.agentIDs))
	for _, id := range rc.agentIDs {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			for _, ts := range rc.tsList {
				batch := rc.groups[id][ts]
				if len(batch) == 0 {
					continue
				}
				if _, err := agents[id].Report(context.Background(), batch); err != nil {
					errs <- fmt.Errorf("agent %s at t=%ds: %w", id, ts, err)
					return
				}
			}
		}(id)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for reporting := true; reporting; {
		c.Tick()
		select {
		case <-done:
			reporting = false
		default:
		}
	}
	c.Drain()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if _, err := c.Checkpoint(); err != nil {
		t.Fatalf("final Checkpoint: %v", err)
	}
	s, frep, err := ckpt.Restore(dir)
	if err != nil || !frep.Restored {
		t.Fatalf("Restore: %v (restored=%v)", err, frep.Restored)
	}
	if got := int(s.Counters.Ingested); got != len(tr.Entries) {
		t.Errorf("final checkpoint ingested %d entries, want %d", got, len(tr.Entries))
	}
}

// TestRestoreReconciliation pins agent re-registration semantics: a
// restored agent's Register response carries its checkpointed params and
// epoch, not the boot-time defaults.
func TestRestoreReconciliation(t *testing.T) {
	tr := testTrace(t, 1, 2, 3, 7*time.Hour, 5)
	dir := t.TempDir()
	cfg := ckptTestConfig(dir)
	c1 := newTestController(t, cfg)
	if _, err := RunSim(c1, tr, SimConfig{}); err != nil {
		t.Fatalf("RunSim: %v", err)
	}
	rounds := c1.Rounds()
	if len(rounds) == 0 {
		t.Fatal("campaign ran no rounds")
	}
	st1 := c1.Status()
	if st1.Epoch == 0 {
		t.Fatal("campaign never advanced the epoch; the test would prove nothing")
	}
	if _, err := c1.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}

	c2, rep, err := Restore(cfg)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	t.Cleanup(c2.Close)
	if !rep.Restored || rep.Agents != len(st1.Agents) || rep.Rounds != len(rounds) {
		t.Fatalf("RestoreReport %+v, want restored with %d agents / %d rounds", rep, len(st1.Agents), len(rounds))
	}
	for _, as := range st1.Agents {
		resp, err := c2.Register(RegisterRequest{AgentID: as.ID})
		if err != nil {
			t.Fatalf("re-register %s: %v", as.ID, err)
		}
		if resp.Params != as.Params || resp.Epoch != as.Epoch {
			t.Errorf("agent %s resumed with (%+v, epoch %d), want (%+v, epoch %d)",
				as.ID, resp.Params, resp.Epoch, as.Params, as.Epoch)
		}
	}
	roundsEqual(t, c2.Rounds(), rounds, "restored history")
	if got := c2.Incumbent(); got != c1.Incumbent() {
		t.Errorf("incumbent %+v, want %+v", got, c1.Incumbent())
	}
	// The next generation continues the sequence instead of restarting
	// at 1 and shadowing older files.
	path, err := c2.Checkpoint()
	if err != nil {
		t.Fatalf("Checkpoint after restore: %v", err)
	}
	if want := ckpt.FileName(rep.Generation + 1); filepath.Base(path) != want {
		t.Errorf("post-restore checkpoint %q, want %q", filepath.Base(path), want)
	}
}

// TestRestoredMetricsMatchStatus: a restored controller's ingest series
// describe the restored lifetime totals, the same ones /statusz reports,
// not only what the new process ingested itself.
func TestRestoredMetricsMatchStatus(t *testing.T) {
	dur := 7 * time.Hour
	tr := testTrace(t, 1, 2, 3, dur, 5)
	cfg := ckptTestConfig(t.TempDir())
	c1 := newTestController(t, cfg)
	if _, err := RunSim(c1, tr, SimConfig{Faults: fault.DefaultPlan(5, dur)}); err != nil {
		t.Fatalf("RunSim: %v", err)
	}
	if _, err := c1.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}

	hub := obs.NewMulti()
	cfg.Obs = hub.Observer("controlplane")
	c2, _, err := Restore(cfg)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	t.Cleanup(c2.Close)
	var sb strings.Builder
	if err := c2.RenderMetrics(hub, &sb); err != nil {
		t.Fatalf("RenderMetrics: %v", err)
	}
	got := make(map[string]string)
	for _, line := range strings.Split(sb.String(), "\n") {
		if series, value, ok := strings.Cut(line, " "); ok && !strings.HasPrefix(line, "#") {
			got[series] = value
		}
	}
	in := c2.Status().Ingest
	if in.Ingested == 0 || in.RejectedCorrupt == 0 {
		t.Fatalf("restored ingest %+v has nothing ingested or rejected; the comparison is vacuous", in)
	}
	for series, want := range map[string]uint64{
		"sdfm_cp_reports_total":                                in.Reports,
		"sdfm_cp_entries_received_total":                       in.Received,
		"sdfm_cp_entries_ingested_total":                       in.Ingested,
		`sdfm_cp_entries_dropped_total{reason="backpressure"}`: in.DroppedBackpressure,
		`sdfm_cp_entries_rejected_total{reason="corrupt"}`:     in.RejectedCorrupt,
		`sdfm_cp_entries_rejected_total{reason="invalid"}`:     in.RejectedInvalid,
	} {
		if got[series] != strconv.FormatUint(want, 10) {
			t.Errorf("%s = %q after restore, status says %d", series, got[series], want)
		}
	}
}

// TestRestoreFallsBackWithAccounting damages the newest generation and
// expects Restore to boot from the older one, reporting the skip.
func TestRestoreFallsBackWithAccounting(t *testing.T) {
	tr := testTrace(t, 1, 2, 2, 4*time.Hour, 9)
	dir := t.TempDir()
	cfg := ckptTestConfig(dir)
	cfg.CheckpointDir = dir
	c1 := newTestController(t, cfg)
	if _, err := RunSim(c1, tr, SimConfig{}); err != nil {
		t.Fatalf("RunSim: %v", err)
	}
	if _, err := c1.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint 1: %v", err)
	}
	p2, err := c1.Checkpoint()
	if err != nil {
		t.Fatalf("Checkpoint 2: %v", err)
	}
	buf, err := os.ReadFile(p2)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p2, buf[:len(buf)*2/3], 0o644); err != nil {
		t.Fatal(err)
	}
	c2, rep, err := Restore(cfg)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	t.Cleanup(c2.Close)
	if !rep.Restored || len(rep.Skipped) != 1 {
		t.Fatalf("RestoreReport %+v, want restore with exactly one skip", rep)
	}
	if rep.File == filepath.Base(p2) {
		t.Fatalf("Restore used the torn file %q", rep.File)
	}
	if got := c2.Incumbent(); got != c1.Incumbent() {
		t.Errorf("incumbent %+v, want %+v", got, c1.Incumbent())
	}
}

// TestRestoreRefusesHostileWindowEntry: the checkpoint directory is a
// trust boundary. A CRC-valid file whose window entry the compiler cannot
// take (3 tails instead of 21), whose window entry fails its checksum, or
// whose agent ID is empty or repeated is skipped with accounting like any
// corrupt file, and the older generation boots: neither believed and
// left to panic the next round, nor a reason for the daemon to exit.
func TestRestoreRefusesHostileWindowEntry(t *testing.T) {
	tr := testTrace(t, 1, 1, 1, time.Hour, 1)
	for name, damage := range map[string]func(s *ckpt.Snapshot){
		"invalid": func(s *ckpt.Snapshot) {
			e := &s.Window[0]
			e.ColdTails, e.PromoTails = e.ColdTails[:3], e.PromoTails[:3]
			e.Checksum = e.ComputeChecksum()
		},
		"corrupt":         func(s *ckpt.Snapshot) { s.Window[0].WSSPages++ }, // checksum now stale
		"unstamped":       func(s *ckpt.Snapshot) { s.Window[0].Checksum = 0 },
		"empty agent id":  func(s *ckpt.Snapshot) { s.Agents[0].ID = "" },
		"duplicate agent": func(s *ckpt.Snapshot) { s.Agents[1].ID = s.Agents[0].ID },
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			snap := func(gen uint64) *ckpt.Snapshot {
				e := tr.Entries[0]
				e.ColdTails, e.PromoTails = slices.Clone(e.ColdTails), slices.Clone(e.PromoTails)
				s := &ckpt.Snapshot{
					Generation:   gen,
					TelemetrySec: e.TimestampSec,
					Incumbent:    core.DefaultParams,
					Window:       []telemetry.Entry{e},
				}
				for _, id := range []string{"c0/m0", "c0/m1"} {
					s.Agents = append(s.Agents, ckpt.Agent{ID: id, Params: core.DefaultParams, LastTS: -1})
				}
				return s
			}
			bad := snap(2)
			damage(bad)
			for _, s := range []*ckpt.Snapshot{snap(1), bad} {
				if _, err := ckpt.WriteFile(dir, s); err != nil {
					t.Fatalf("WriteFile: %v", err)
				}
			}
			c, rep, err := Restore(ckptTestConfig(dir))
			if err != nil {
				t.Fatalf("Restore: %v", err)
			}
			t.Cleanup(c.Close)
			if !rep.Restored || rep.Generation != 1 || len(rep.Skipped) != 1 ||
				rep.Skipped[0].Name != ckpt.FileName(2) || !errors.Is(rep.Skipped[0].Err, ckpt.ErrCorrupt) {
				t.Fatalf("RestoreReport %+v, want generation 1 with generation 2 skipped as corrupt", rep)
			}
			if st := c.Status(); st.WindowEntries != 1 || len(st.Agents) != 2 {
				t.Errorf("restored %d window entries and %d agents, want generation 1's 1 and 2", st.WindowEntries, len(st.Agents))
			}
		})
	}
}

// churnCheckpointBytes runs `windows` tuning windows over loopback, each
// carrying keysPerWindow job keys never seen before or again, closes each
// with RunRound, and returns the size of a checkpoint cut afterwards.
func churnCheckpointBytes(t *testing.T, windows, keysPerWindow int) int64 {
	t.Helper()
	cfg := ckptTestConfig(t.TempDir())
	cfg.QueueCap = keysPerWindow
	cfg.BatchSize = keysPerWindow
	c := newTestController(t, cfg)
	agent := NewAgent("c/m", NewLoopback(c))
	if err := agent.Register(context.Background()); err != nil {
		t.Fatal(err)
	}
	template := testTrace(t, 1, 1, 1, time.Hour, 1).Entries[0]
	batch := make([]telemetry.Entry, keysPerWindow)
	for w := 0; w < windows; w++ {
		for i := range batch {
			e := template
			e.Key.Job = fmt.Sprintf("job-%d-%d", w, i)
			e.TimestampSec = int64(w) * 3600
			e.Checksum = e.ComputeChecksum()
			batch[i] = e
		}
		if _, err := agent.Report(context.Background(), batch); err != nil {
			t.Fatalf("window %d: %v", w, err)
		}
		if rep := c.Tick(); rep.Drained != keysPerWindow {
			t.Fatalf("window %d: drained %d of %d entries", w, rep.Drained, keysPerWindow)
		}
		if _, err := c.RunRound(); err != nil {
			t.Fatalf("window %d: RunRound: %v", w, err)
		}
	}
	path, err := c.Checkpoint()
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// TestCheckpointBoundedUnderJobChurn pins that the controller forgets a
// job once its window is judged: after 40,000 churned job keys a drained
// controller's checkpoint holds agents, rounds and counters only, so it
// is small and does not grow with the number of keys that passed through.
func TestCheckpointBoundedUnderJobChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("ingests 120,000 entries")
	}
	const windows, keys = 20, 2000
	size := churnCheckpointBytes(t, windows, keys)
	if size >= 16<<10 {
		t.Errorf("checkpoint after %d churned job keys is %d bytes, want < 16 KiB", windows*keys, size)
	}
	twice := churnCheckpointBytes(t, windows, 2*keys)
	if d := twice - size; d < -64 || d > 64 {
		t.Errorf("checkpoint is %d bytes at %d keys per window and %d at %d: it grows with job keys",
			size, keys, twice, 2*keys)
	}
}

// TestCheckpointRefusedMidRound pins the safety rule: while a round owns
// the cut window, Checkpoint must refuse rather than persist a snapshot
// with the window silently missing.
func TestCheckpointRefusedMidRound(t *testing.T) {
	cfg := ckptTestConfig(t.TempDir())
	c := newTestController(t, cfg)
	c.mu.Lock()
	c.roundInFlight = true
	c.mu.Unlock()
	if _, err := c.Checkpoint(); err != ErrRoundInFlight {
		t.Fatalf("Checkpoint mid-round: %v, want ErrRoundInFlight", err)
	}
	c.mu.Lock()
	c.roundInFlight = false
	c.mu.Unlock()
	if _, err := c.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint after round: %v", err)
	}
	// And without a directory the operation is an explicit error, not a
	// silent no-op.
	plain := newTestController(t, ckptTestConfig(""))
	if _, err := plain.Checkpoint(); err != ErrNoCheckpointDir {
		t.Fatalf("Checkpoint without dir: %v, want ErrNoCheckpointDir", err)
	}
}

// TestCloseIsFinal pins the lifecycle contract every owner relies on
// (tests removing a TempDir, sdfmd exiting, a successor restoring): once
// Close returns, ingest is sealed, the background writer is joined and
// left nothing half-written, and no later Tick starts another — even one
// that finds a checkpoint overdue.
func TestCloseIsFinal(t *testing.T) {
	tr := testTrace(t, 1, 2, 2, 4*time.Hour, 3)
	dir := t.TempDir()
	c := newTestController(t, ckptTestConfig(dir))
	if _, err := RunSim(c, tr, SimConfig{}); err != nil {
		t.Fatalf("RunSim: %v", err)
	}
	c.Close()
	c.Close() // idempotent

	listing := func() []string {
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, e := range ents {
			names = append(names, e.Name())
		}
		return names
	}
	before := listing()
	if len(before) == 0 {
		t.Fatal("campaign cut no periodic checkpoint; the test would prove nothing")
	}
	for _, name := range before {
		if filepath.Ext(name) != ".sdfmcp" {
			t.Errorf("Close left a partial write behind: %s", name)
		}
	}
	if _, err := c.Report(ReportRequest{AgentID: c.Status().Agents[0].ID}); err != ErrDraining {
		t.Errorf("Report after Close: %v, want ErrDraining", err)
	}
	c.mu.Lock()
	c.telemetryMax += 10 * c.ckptEverySec // a checkpoint is now overdue
	c.mu.Unlock()
	if rep := c.Tick(); rep.Checkpointed {
		t.Error("Tick after Close started a checkpoint writer")
	}
	if after := listing(); !reflect.DeepEqual(after, before) {
		t.Errorf("directory changed after Close: %v -> %v", before, after)
	}
	// The caller's own final snapshot still works, on the caller's goroutine.
	if _, err := c.Checkpoint(); err != nil {
		t.Errorf("Checkpoint after Close: %v", err)
	}
}

// fillNonZero sets every exported field reachable from v to a non-zero
// value, numbering the leaves so no two fields hold the same one. Numbers
// stay small, so a filled core.Params is a valid one (K in [0, 100],
// S >= 0). A slice gets one element, itself filled.
func fillNonZero(t *testing.T, v reflect.Value, n *int) {
	t.Helper()
	*n++
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(int64(*n))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(uint64(*n))
	case reflect.Float32, reflect.Float64:
		v.SetFloat(float64(*n) + 0.5)
	case reflect.String:
		v.SetString(fmt.Sprintf("value %d", *n))
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fillNonZero(t, v.Field(i), n)
			}
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		fillNonZero(t, v.Index(0), n)
	default:
		t.Fatalf("fillNonZero: no non-zero value for a %s", v.Type())
	}
}

// TestCheckpointKeepsEveryRoundField: every exported field of a round
// record, set to a non-zero value, comes back from Checkpoint → Restore.
// A field the checkpoint codec forgets is lost at every restart; this
// makes a new field fail here until the codec carries it.
func TestCheckpointKeepsEveryRoundField(t *testing.T) {
	var want RoundReport
	n := 0
	fillNonZero(t, reflect.ValueOf(&want).Elem(), &n)
	rv := reflect.ValueOf(want)
	for i := 0; i < rv.NumField(); i++ {
		if rv.Type().Field(i).IsExported() && rv.Field(i).IsZero() {
			t.Fatalf("field %s left zero", rv.Type().Field(i).Name)
		}
	}
	cfg := ckptTestConfig(t.TempDir())
	c1 := newTestController(t, cfg)
	c1.mu.Lock()
	c1.rounds = append(c1.rounds, want)
	c1.mu.Unlock()
	if _, err := c1.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	c2, rep, err := Restore(cfg)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	t.Cleanup(c2.Close)
	got := c2.Rounds()
	if !rep.Restored || len(got) != 1 {
		t.Fatalf("restored %d rounds (%+v), want 1", len(got), rep)
	}
	gv := reflect.ValueOf(got[0])
	for i := 0; i < rv.NumField(); i++ {
		if !rv.Type().Field(i).IsExported() {
			continue
		}
		if g, w := gv.Field(i).Interface(), rv.Field(i).Interface(); !reflect.DeepEqual(g, w) {
			t.Errorf("round field %s: restored %+v, checkpointed %+v", rv.Type().Field(i).Name, g, w)
		}
	}
}

// TestRestoreSkipsInvalidParams: a (K, S) in a checkpoint is input like
// any other. A CRC-valid file whose incumbent, agent or round carries a
// value core.Params.Validate refuses is skipped with accounting, and the
// older generation boots, instead of handing agents a NaN percentile.
func TestRestoreSkipsInvalidParams(t *testing.T) {
	good := core.Params{K: 98, S: 20 * time.Minute}
	for name, damage := range map[string]func(s *ckpt.Snapshot){
		"incumbent K 150":     func(s *ckpt.Snapshot) { s.Incumbent.K = 150 },
		"incumbent S -1h":     func(s *ckpt.Snapshot) { s.Incumbent.S = -time.Hour },
		"agent K NaN":         func(s *ckpt.Snapshot) { s.Agents[0].Params.K = math.NaN() },
		"round candidate NaN": func(s *ckpt.Snapshot) { s.Rounds[0].Candidate.K = math.NaN() },
		"round chosen S -1s":  func(s *ckpt.Snapshot) { s.Rounds[0].Chosen.S = -time.Second },
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			snap := func(gen uint64) *ckpt.Snapshot {
				s := &ckpt.Snapshot{Generation: gen, TelemetrySec: -1, Incumbent: good, Epoch: int64(gen)}
				s.Agents = append(s.Agents, ckpt.Agent{ID: "c0/m0", Params: good, Epoch: int64(gen), LastTS: -1})
				s.Rounds = append(s.Rounds, ckpt.Round{Round: 1, Candidate: good, Chosen: good, Accepted: true})
				return s
			}
			bad := snap(2)
			damage(bad)
			for _, s := range []*ckpt.Snapshot{snap(1), bad} {
				if _, err := ckpt.WriteFile(dir, s); err != nil {
					t.Fatalf("WriteFile: %v", err)
				}
			}
			c, rep, err := Restore(ckptTestConfig(dir))
			if err != nil {
				t.Fatalf("Restore: %v", err)
			}
			t.Cleanup(c.Close)
			if !rep.Restored || rep.Generation != 1 || len(rep.Skipped) != 1 ||
				rep.Skipped[0].Name != ckpt.FileName(2) || !errors.Is(rep.Skipped[0].Err, ckpt.ErrCorrupt) {
				t.Fatalf("RestoreReport %+v, want generation 1 with generation 2 skipped as corrupt", rep)
			}
			resp, err := c.Poll(PollRequest{AgentID: "c0/m0"})
			if err != nil {
				t.Fatal(err)
			}
			if resp.Params != good || resp.Incumbent != good || resp.Epoch != 1 {
				t.Errorf("Poll after restore: %+v, want generation 1's params", resp)
			}
		})
	}
}

// TestCheckpointClockRestartsAfterCut: the checkpoint clock restarts at
// the first entry after a snapshot, as the round clock restarts at the
// first entry after a round cut. With CheckpointEvery equal to
// RoundEvery the two cadences then stay in step: every periodic
// checkpoint is cut in the Tick that runs a round, after the round, and
// holds an empty window — none lands an interval before the round with
// the window nearly full and its write still in flight when the round
// starts.
func TestCheckpointClockRestartsAfterCut(t *testing.T) {
	dir := t.TempDir()
	cfg := ckptTestConfig(dir)
	cfg.RoundEvery = time.Hour
	cfg.CheckpointEvery = time.Hour
	c := newTestController(t, cfg)
	rc := groupTrace(testTrace(t, 1, 2, 2, 6*time.Hour, 3))
	agents := registerAgents(t, c, rc)
	checkpoints := 0
	for _, ts := range rc.tsList {
		sendInterval(t, agents, rc, ts)
		rep := c.Tick()
		if !rep.Checkpointed {
			continue
		}
		checkpoints++
		if !rep.RoundRan {
			t.Fatalf("checkpoint %d cut at t=%ds, in a Tick that ran no round", checkpoints, ts)
		}
		c.ckptSchedMu.Lock()
		c.ckptWG.Wait()
		c.ckptSchedMu.Unlock()
		s, _, err := ckpt.Restore(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(s.Window) != 0 || len(s.Rounds) != len(c.Rounds()) {
			t.Fatalf("checkpoint %d at t=%ds holds %d window entries and %d rounds, want none and the %d run",
				checkpoints, ts, len(s.Window), len(s.Rounds), len(c.Rounds()))
		}
	}
	if checkpoints < 4 || checkpoints != len(c.Rounds()) {
		t.Fatalf("%d checkpoints over %d rounds, want one per round and several", checkpoints, len(c.Rounds()))
	}
}
