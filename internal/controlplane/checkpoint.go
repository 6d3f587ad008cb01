package controlplane

// Checkpointing: the controller's durable-state layer. Snapshots are
// extracted with the same discipline tuning rounds use — everything
// decision-shaped is read under the control mutex (stripe mutexes taken
// briefly per agent), then encoding and file I/O run with no locks held,
// so a checkpoint never stalls ingest. Cadence is telemetry time, never
// the wall clock: a snapshot is cut when the ingested telemetry clock
// has advanced CheckpointEvery past the previous snapshot's clock,
// mirroring how rounds trigger on window span, and that clock restarts at
// the first entry after a snapshot, as the round clock restarts at the
// first entry after a round cut. Checkpoints are never
// taken while a round is in flight — mid-round the round owns the window
// and it would be silently absent from the snapshot.
//
// Restoring is Restore(cfg): boot a fresh controller, adopt the newest
// checkpoint that decodes (older generations win over torn newer files,
// with accounting), and let agents re-register idempotently — Register
// finds their restored state, so epochs and params resume instead of
// resetting.

import (
	"errors"
	"os"
	"slices"
	"sort"
	"time"

	"sdfm/internal/controlplane/ckpt"
	"sdfm/internal/model"
)

// ErrNoCheckpointDir rejects checkpoint operations on a controller
// configured without a CheckpointDir.
var ErrNoCheckpointDir = errors.New("controlplane: no checkpoint directory configured")

// RestoreReport summarizes a Restore: the file scan (which checkpoint
// booted the controller, and the newer files skipped on the way to it,
// newest first) and the state it recovered.
type RestoreReport struct {
	ckpt.RestoreReport
	// Agents, Rounds, QueuedEntries, and Ingested describe the recovered
	// state: registered agents, completed tuning rounds, telemetry
	// entries still queued (acked but undrained at snapshot time), and
	// the lifetime ingested-entry total.
	Agents        int
	Rounds        int
	QueuedEntries int
	Ingested      uint64
}

// Restore boots a controller from the newest valid checkpoint in
// cfg.CheckpointDir. Corrupt or torn files are skipped with accounting,
// falling back to older generations; an empty or missing directory (or
// an unset CheckpointDir) is a fresh boot, not an error. The restored
// controller continues its campaign deterministically: given the same
// replayed telemetry, its round decisions and final incumbent are
// byte-identical to a controller that never went down.
func Restore(cfg Config) (*Controller, RestoreReport, error) {
	c, err := New(cfg)
	if err != nil {
		return nil, RestoreReport{}, err
	}
	if c.cfg.CheckpointDir == "" {
		return c, RestoreReport{}, nil
	}
	s, frep, err := ckpt.Restore(c.cfg.CheckpointDir)
	if err != nil {
		return nil, RestoreReport{}, err
	}
	rep := RestoreReport{RestoreReport: frep}
	c.m.ckptSkipped.AddInt(len(frep.Skipped))
	if s == nil {
		return c, rep, nil
	}
	c.adoptSnapshot(s)
	rep.Agents = len(s.Agents)
	rep.Rounds = len(s.Rounds)
	rep.QueuedEntries = s.QueuedEntries()
	rep.Ingested = s.Counters.Ingested
	return c, rep, nil
}

// adoptSnapshot loads a decoded checkpoint into a freshly built
// controller. Called before the controller is shared, so no locking. The
// decoder has already refused what the controller cannot take: an
// invalid (K, S), an empty or duplicate agent ID, a window entry that
// fails validation or its checksum.
func (c *Controller) adoptSnapshot(s *ckpt.Snapshot) {
	c.incumbent = s.Incumbent
	c.epoch.Store(s.Epoch)
	c.telemetryMax = s.TelemetrySec
	c.ckptGen = s.Generation

	// Agent registry, sorted by ID whatever order the file holds. Each
	// agent gets a queue of its own instead of a view into the decoded
	// block.
	for _, a := range s.Agents {
		st := c.stripeFor(a.ID)
		a.Queue = slices.Clone(a.Queue)
		st.agents[a.ID] = &a
		st.queued += len(a.Queue)
		c.ids = append(c.ids, a.ID)
	}
	sort.Strings(c.ids)

	// Lifetime counters. The stripe-side totals land on stripe 0 — stripe
	// placement is invisible because every reader sums across stripes.
	c.stripes[0].nReports = s.Counters.Reports
	c.stripes[0].nReceived = s.Counters.Received
	c.stripes[0].nDropped = s.Counters.DroppedBackpressure
	c.nIngested = s.Counters.Ingested
	c.nCorrupt = s.Counters.RejectedCorrupt
	c.nInvalid = s.Counters.RejectedInvalid

	// Tuning window, folded the way Tick folds it; its bounds are read off
	// the entries, never off the file. Queued entries need nothing: they
	// reach Tick after the restore.
	slots, _ := c.window.Resolve(nil, nil, s.Window)
	for i := range s.Window {
		c.foldLocked(&s.Window[i], slots[i])
	}

	// Round history, so round numbering and /statusz continue seamlessly.
	c.rounds = s.Rounds

	c.m.ckptGen.Set(float64(s.Generation))
}

// Checkpoint forces a snapshot to CheckpointDir regardless of cadence —
// the graceful-drain hook and admin override. It refuses while a tuning
// round is in flight (the round owns the window; a snapshot taken now
// would silently drop it), waits for any in-flight background write, and
// returns the written file's path — when it returns, every generation up
// to and including this one is durable.
func (c *Controller) Checkpoint() (string, error) {
	c.ckptSchedMu.Lock()
	defer c.ckptSchedMu.Unlock()
	c.ckptWG.Wait() // join any in-flight background write first

	c.mu.Lock()
	if c.cfg.CheckpointDir == "" {
		c.mu.Unlock()
		return "", ErrNoCheckpointDir
	}
	if c.roundInFlight {
		c.mu.Unlock()
		return "", ErrRoundInFlight
	}
	c.ckptGen++
	s, window := c.snapshotLocked()
	c.mu.Unlock()
	return c.persistSnapshot(s, window)
}

// maybeCheckpoint cuts a snapshot when the telemetry clock has advanced
// CheckpointEvery past the last one. Called from Tick with no locks
// held. Only the snapshot extraction is synchronous — encoding, the
// temp-file write, fsync, and prune run on a background goroutine so the
// tick path never stalls on disk (the <2% ingest-overhead budget). A
// crossing first joins the previous write — normally long since finished
// because the cadence is hours of telemetry — so at most one writer runs
// and generations land on disk in order.
func (c *Controller) maybeCheckpoint() bool {
	c.mu.Lock()
	due := !c.roundInFlight && c.ckptBase >= 0 &&
		c.telemetryMax-c.ckptBase >= c.ckptEverySec
	c.mu.Unlock()
	if !due {
		return false
	}
	c.ckptSchedMu.Lock()
	defer c.ckptSchedMu.Unlock()
	if c.closed {
		return false
	}
	c.ckptWG.Wait()

	// Re-check under the control mutex: a concurrent Checkpoint call may
	// have advanced ckptBase while we waited.
	c.mu.Lock()
	if c.roundInFlight || c.ckptBase < 0 ||
		c.telemetryMax-c.ckptBase < c.ckptEverySec {
		c.mu.Unlock()
		return false
	}
	c.ckptGen++
	s, window := c.snapshotLocked()
	c.ckptWG.Add(1)
	c.mu.Unlock()
	go func() {
		defer c.ckptWG.Done()
		c.persistSnapshot(s, window) // failure is accounted in ckptErrors
	}()
	return true
}

// persistSnapshot encodes and writes an already-extracted snapshot with
// no controller locks held, first materializing the window view into the
// snapshot's Window, in ingest order. The single-writer discipline
// enforced by ckptSchedMu/ckptWG means prune never races a write, and
// generation numbers assigned under the control mutex keep file names
// monotonic.
func (c *Controller) persistSnapshot(s *ckpt.Snapshot, window model.View) (string, error) {
	s.Window = window.Entries()
	path, err := ckpt.WriteFile(c.cfg.CheckpointDir, s)
	var pruneErr error
	if err == nil {
		_, pruneErr = ckpt.Prune(c.cfg.CheckpointDir, c.cfg.CheckpointKeep)
	}

	c.mu.Lock()
	if err != nil {
		c.m.ckptErrors.Inc()
	} else {
		c.m.ckptWrites.Inc()
		c.m.ckptGen.Set(float64(s.Generation))
		if pruneErr != nil {
			// The snapshot itself landed; a failed prune only leaks old files.
			c.m.ckptErrors.Inc()
		}
	}
	c.mu.Unlock()
	if err != nil {
		return "", err
	}
	return path, nil
}

// snapshotLocked cuts a checkpoint: it extracts the snapshot and a view
// of the window, which persistSnapshot materializes, and restarts the
// checkpoint clock at the next entry. Caller holds the control mutex;
// stripe mutexes are taken briefly per agent, matching every other
// whole-registry read (Status, assignFraction). Everything the snapshot
// references is a copy or immutable, so encoding can run lock-free.
func (c *Controller) snapshotLocked() (*ckpt.Snapshot, model.View) {
	s := &ckpt.Snapshot{
		Generation:   c.ckptGen,
		TelemetrySec: c.telemetryMax,
		Incumbent:    c.incumbent,
		Epoch:        c.epoch.Load(),
	}
	c.ckptBase = -1
	// Zero-copy: the window's columns only grow past the view's rows or
	// move to new arrays, never rewriting a row the view holds, so the
	// background writer can read it while ingest keeps folding and a
	// round finishes the window.
	window := c.window.View()
	for _, id := range c.ids {
		st := c.stripeFor(id)
		st.mu.Lock()
		a := *st.agents[id]
		a.Queue = slices.Clone(a.Queue)
		st.mu.Unlock()
		s.Agents = append(s.Agents, a)
	}
	// A round record holds no slice, so a shallow clone is a full copy.
	s.Rounds = slices.Clone(c.rounds)
	s.Counters, _ = c.ingestTotalsLocked()
	return s, window
}

// ensureCheckpointDir creates the checkpoint directory at boot so the
// first snapshot cannot fail on a missing path.
func ensureCheckpointDir(dir string) error {
	if dir == "" {
		return nil
	}
	return os.MkdirAll(dir, 0o755)
}

// checkpointEverySeconds resolves the cadence in telemetry seconds.
func checkpointEverySeconds(d time.Duration) int64 {
	return int64(d / time.Second)
}
