// Package controlplane runs the paper's offline tuning loop as an online
// fleet service (§4–§6): node agents register with a central controller,
// stream their 5-minute telemetry aggregates to it, and poll for the
// control-plane parameters (K, S) they should run. The controller ingests
// telemetry through bounded per-agent queues with explicit backpressure
// and drop accounting, keeps the open tuning window, and — every time
// the ingested telemetry spans a full tuning window — replays the
// window through the fast far memory model, asks the GP-bandit for a new
// candidate, and pushes it through staged deployment rings with a health
// check after each ring and rollback on violation (tuner.StagedRollout
// semantics, §5.3).
//
// # Locking discipline
//
// The ingest path is built for "millions of machines" scale: the agent
// registry and per-agent queues are split across lock-striped shards
// (FNV-1a on agent ID), so concurrent Report calls from different agents
// never contend, and a Report never touches the control mutex at all.
// Lifetime ingest counters live per stripe and are summed on read. The
// control mutex guards everything decision-shaped — the sorted agent ID
// list, the tuning window, the incumbent, round state, and every obs
// instrument write and metrics render. Lock order is always control mutex → stripe mutex,
// and no stripe mutex is ever held while acquiring the control mutex, so
// the two layers cannot deadlock. The window is compiled as Tick ingests
// it; tuning rounds take it under the control mutex and then run
// Finish→Autotune→StagedRollout with no locks held; stage pushes
// re-acquire locks briefly to move agent rings.
//
// The controller itself is transport-agnostic and driven entirely by the
// telemetry it ingests: tuning rounds trigger on telemetry timestamps, not
// the wall clock, so the same controller is byte-identical under the
// deterministic in-process Loopback transport (simulated time, seeded,
// fault-injectable — see RunSim) and merely eventually-consistent under
// the real net/http transport served by cmd/sdfmd. Tick drains the
// striped queues in sorted-agent order, so round inputs do not depend on
// which stripe an agent hashes to.
package controlplane

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sdfm/internal/controlplane/ckpt"
	"sdfm/internal/core"
	"sdfm/internal/histogram"
	"sdfm/internal/model"
	"sdfm/internal/obs"
	"sdfm/internal/telemetry"
	"sdfm/internal/tuner"
)

// Sentinel errors callers can branch on with errors.Is.
var (
	// ErrUnknownAgent rejects a report or poll from an agent that never
	// registered (or was forgotten).
	ErrUnknownAgent = errors.New("controlplane: unknown agent")
	// ErrRoundInFlight rejects a forced round while another is running.
	ErrRoundInFlight = errors.New("controlplane: tuning round already in flight")
	// ErrNoTelemetry rejects a forced round on an empty window.
	ErrNoTelemetry = errors.New("controlplane: no telemetry in the current window")
	// ErrDraining rejects registrations and reports once Drain has begun.
	ErrDraining = errors.New("controlplane: controller is draining")
)

// Config configures a Controller.
type Config struct {
	// SLO is the fleet promotion-rate SLO (default core.DefaultSLO).
	SLO core.SLO
	// Incumbent is the configuration agents start on (default
	// core.DefaultParams).
	Incumbent core.Params
	// Tuner configures the per-round GP-bandit search. Its SLO is this
	// config's: zero takes it, and any other value is refused, so one SLO
	// judges a round's candidates, replays and rollout. The Seed makes
	// rounds deterministic;
	// every round reuses the same seed so a round's decision depends only
	// on its window's telemetry. Its Obs field is ignored (tuner
	// instruments would be written outside the controller mutex and race
	// scrapes); round outcomes are exported as sdfm_cp_*.
	Tuner tuner.Config
	// Stages are the deployment rings a candidate is pushed through
	// (default tuner.DefaultRolloutStages).
	Stages []tuner.RolloutStage
	// RoundEvery is the telemetry-time span of one tuning window: a round
	// runs once the ingested window spans at least this much trace time
	// (default 6 h). Rounds are driven by telemetry timestamps, never the
	// wall clock.
	RoundEvery time.Duration
	// QueueCap bounds each agent's ingest queue, in entries; reports
	// beyond it are dropped and accounted (default 8192).
	QueueCap int
	// BatchSize bounds how many entries one Tick drains per agent, so a
	// single tick's work is bounded regardless of backlog (default 1024).
	BatchSize int
	// CheckpointDir, when set, enables durable state: the controller
	// writes atomic snapshot files (internal/controlplane/ckpt) there and
	// Restore boots from the newest valid one. Empty disables
	// checkpointing.
	CheckpointDir string
	// CheckpointEvery is the telemetry-time cadence between snapshots: a
	// checkpoint is cut when the ingested telemetry clock has advanced
	// this much past the previous snapshot's clock (default RoundEvery).
	// Like rounds, checkpoints never trigger on the wall clock.
	CheckpointEvery time.Duration
	// CheckpointKeep bounds the checkpoint generations retained on disk;
	// older files are pruned after each write (default 4).
	CheckpointKeep int
	// Obs, when set, exports sdfm_cp_* metrics; render them through
	// Controller.RenderMetrics. Ingest totals, agents, epoch and the
	// deployed configuration are read from controller state at export;
	// rounds, pushes and checkpoint events are counted as they happen. All
	// of it runs under the control mutex; RenderMetrics renders into a
	// buffer under that mutex and writes it out after releasing it, so a
	// slow scraper never stalls anything.
	Obs *obs.Observer
	// OnRound, when set, is called after each completed tuning round,
	// outside the controller mutex.
	OnRound func(RoundReport)
}

func (c *Config) fillDefaults() {
	if c.SLO == (core.SLO{}) {
		c.SLO = core.DefaultSLO
	}
	if c.Incumbent == (core.Params{}) {
		c.Incumbent = core.DefaultParams
	}
	if c.Tuner.SLO == (core.SLO{}) {
		c.Tuner.SLO = c.SLO
	}
	if len(c.Stages) == 0 {
		c.Stages = tuner.DefaultRolloutStages
	}
	if c.RoundEvery == 0 {
		c.RoundEvery = 6 * time.Hour
	}
	if c.CheckpointEvery == 0 {
		c.CheckpointEvery = c.RoundEvery
	}
	if c.CheckpointKeep == 0 {
		c.CheckpointKeep = 4
	}
	if c.QueueCap == 0 {
		c.QueueCap = 8192
	}
	if c.BatchSize == 0 {
		c.BatchSize = 1024
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	d := c
	d.fillDefaults()
	if err := d.SLO.Validate(); err != nil {
		return err
	}
	if err := d.Incumbent.Validate(); err != nil {
		return err
	}
	if err := d.Tuner.Validate(); err != nil {
		return err
	}
	if d.Tuner.SLO != d.SLO {
		return fmt.Errorf("controlplane: tuner SLO %+v differs from the round's SLO %+v", d.Tuner.SLO, d.SLO)
	}
	if c.RoundEvery < 0 {
		return fmt.Errorf("controlplane: negative RoundEvery %v", c.RoundEvery)
	}
	if c.CheckpointEvery < 0 {
		return fmt.Errorf("controlplane: negative CheckpointEvery %v", c.CheckpointEvery)
	}
	if c.CheckpointKeep < 0 {
		return fmt.Errorf("controlplane: negative CheckpointKeep %d", c.CheckpointKeep)
	}
	if c.QueueCap < 0 || c.BatchSize < 0 {
		return fmt.Errorf("controlplane: negative queue/batch size (%d/%d)", c.QueueCap, c.BatchSize)
	}
	return tuner.ValidateStages(d.Stages)
}

// numStripes is the ingest lock-stripe count. Agents hash to stripes;
// Report calls from agents on different stripes proceed fully in
// parallel.
const numStripes = 16

// stripe is one lock stripe of the agent registry: the agents that hash
// to it (each a ckpt.Agent, its queue bounded by Config.QueueCap), and
// this stripe's slice of the lifetime ingest counters. Report touches
// exactly one stripe and nothing else, so the ingest hot path scales
// with the stripe count instead of serializing on a controller-wide
// mutex.
type stripe struct {
	mu     sync.Mutex
	agents map[string]*ckpt.Agent

	// Lifetime ingest accounting for this stripe's agents; summed across
	// stripes on read (Status, RenderMetrics).
	nReports, nReceived, nDropped uint64
	// queued is the entries currently sitting in this stripe's queues.
	queued int
}

// cpMetrics holds the controller's push instrument handles, for the
// events no controller state keeps (nil-safe when observability is off).
type cpMetrics struct {
	rounds      *obs.Counter
	rollbacks   *obs.Counter
	stagePushes *obs.Counter
	tunerEvals  *obs.Counter
	gaps        *obs.Gauge
	complete    *obs.Gauge
	coverage    *obs.Gauge
	p98         *obs.Gauge
	ckptWrites  *obs.Counter
	ckptErrors  *obs.Counter
	ckptSkipped *obs.Counter
	ckptGen     *obs.Gauge
}

// Controller is the fleet control plane: lock-striped agent registry,
// bounded telemetry ingest, the open tuning window, and the periodic
// tune-and-push loop. All exported methods are safe for concurrent use;
// under the single-threaded Loopback transport the controller is fully
// deterministic. See the package comment for the locking discipline.
type Controller struct {
	cfg      Config
	roundSec int64

	stripes [numStripes]stripe

	// epoch mirrors the parameter-assignment epoch for lock-free reads on
	// the Report path; it is only advanced under the control mutex.
	epoch atomic.Int64
	// draining seals ingest. Report checks it inside the stripe critical
	// section, so Drain's stripe barrier (see Drain) guarantees no report
	// is acknowledged after the final flush.
	draining atomic.Bool

	// mu is the control mutex — see the package comment. Everything below
	// it is guarded by it.
	mu        sync.Mutex
	ids       []string // sorted; ring assignment is a prefix of this
	incumbent core.Params

	// window is the open tuning window: every entry ingested since the
	// last round cut, folded into the fast model's per-job columns as it
	// is ingested, which are its only storage (model.NewWindow). A round
	// takes it and only finishes it; a checkpoint takes a View of it and
	// gets the entries back in ingest order. windowStart is the timestamp
	// of its first entry, windowMax its newest.
	window      *model.StreamCompiler
	windowStart int64
	windowMax   int64

	roundInFlight bool
	rounds        []RoundReport

	// telemetryMax is the newest telemetry timestamp ever ingested — the
	// monotonic telemetry clock checkpoints are paced by (windowMax
	// resets every round; this never does). ckptBase is that clock's
	// value at the last checkpoint (-1 before any telemetry), ckptGen the
	// last generation written or restored.
	telemetryMax int64
	ckptBase     int64
	ckptGen      uint64
	ckptEverySec int64

	// Periodic checkpoint writes run on a background goroutine so the
	// tick/drain path never stalls on encode or fsync. ckptSchedMu
	// serializes checkpoint scheduling (it is taken before the control
	// mutex, never after); ckptWG tracks the single in-flight writer. A
	// new write joins the previous one before launching, so generations
	// land on disk in order and at most one writer ever runs. closed
	// (guarded by ckptSchedMu) is set by Close: no writer starts after it.
	ckptSchedMu sync.Mutex
	ckptWG      sync.WaitGroup
	closed      bool

	// Tick-side lifetime counters (stripe-side ones live on the stripes).
	nIngested, nCorrupt, nInvalid uint64

	// scrape is the ingest snapshot RenderMetrics takes, which every
	// ingest series reads, so one scrape is one consistent view.
	scrape       IngestStats
	scrapeQueued int

	drainScratch []telemetry.Entry // Tick's per-agent drain buffer
	sumScratch   []uint64          // the drained batch's content checksums
	keyScratch   []uint64          // the drained batch's key checksum prefixes
	slotScratch  []int             // the drained batch's job slots in the window

	m cpMetrics
}

// New builds a controller.
func New(cfg Config) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.fillDefaults()
	cfg.Tuner.Obs = nil // see Config.Tuner: tuner instruments would race scrapes
	if err := ensureCheckpointDir(cfg.CheckpointDir); err != nil {
		return nil, err
	}
	c := &Controller{
		cfg:          cfg,
		roundSec:     int64(cfg.RoundEvery / time.Second),
		incumbent:    cfg.Incumbent,
		window:       model.NewWindow(telemetry.DefaultThresholds, histogram.DefaultScanPeriod, cfg.SLO),
		telemetryMax: -1,
		ckptBase:     -1,
		ckptEverySec: checkpointEverySeconds(cfg.CheckpointEvery),
	}
	for i := range c.stripes {
		c.stripes[i].agents = make(map[string]*ckpt.Agent)
	}
	c.registerMetrics(cfg.Obs)
	return c, nil
}

// registerMetrics registers the sdfm_cp_* series on o (a no-op when o is
// nil). Registration order is export order.
func (c *Controller) registerMetrics(o *obs.Observer) {
	if o == nil {
		return
	}
	ingest := func(name, help string, v *uint64, labels ...obs.Label) {
		o.CounterFunc(name, help, func() float64 { return float64(*v) }, labels...)
	}
	reason := func(r string) obs.Label { return obs.Label{Key: "reason", Value: r} }
	o.GaugeFunc("sdfm_cp_agents", "Registered node agents.", func() float64 { return float64(len(c.ids)) })
	ingest("sdfm_cp_reports_total", "Telemetry reports received.", &c.scrape.Reports)
	ingest("sdfm_cp_entries_received_total", "Telemetry entries received in reports.", &c.scrape.Received)
	ingest("sdfm_cp_entries_ingested_total", "Entries accepted into the tuning window.", &c.scrape.Ingested)
	ingest("sdfm_cp_entries_dropped_total", "Entries dropped by per-agent queue backpressure.",
		&c.scrape.DroppedBackpressure, reason("backpressure"))
	ingest("sdfm_cp_entries_rejected_total", "Entries rejected at ingest validation.",
		&c.scrape.RejectedCorrupt, reason("corrupt"))
	ingest("sdfm_cp_entries_rejected_total", "Entries rejected at ingest validation.",
		&c.scrape.RejectedInvalid, reason("invalid"))
	o.GaugeFunc("sdfm_cp_queue_depth", "Entries queued across all agents.",
		func() float64 { return float64(c.scrapeQueued) })
	c.m.rounds = o.Counter("sdfm_cp_rounds_total", "Completed tuning rounds.")
	c.m.rollbacks = o.Counter("sdfm_cp_rollbacks_total", "Tuning rounds that rolled back to the incumbent.")
	c.m.stagePushes = o.Counter("sdfm_cp_stage_pushes_total", "Per-stage parameter pushes to agent rings.")
	c.m.tunerEvals = o.Counter("sdfm_cp_tuner_evals_total", "GP-bandit objective evaluations across rounds.")
	o.GaugeFunc("sdfm_cp_epoch", "Current parameter assignment epoch.",
		func() float64 { return float64(c.epoch.Load()) })
	o.GaugeFunc("sdfm_cp_deployed_k", "Fleet-incumbent K percentile.",
		func() float64 { return c.incumbent.K })
	o.GaugeFunc("sdfm_cp_deployed_s_seconds", "Fleet-incumbent S warmup, seconds.",
		func() float64 { return c.incumbent.S.Seconds() })
	c.m.gaps = o.Gauge("sdfm_cp_round_gap_intervals", "Inferred missing intervals in the last round's window.")
	c.m.complete = o.Gauge("sdfm_cp_round_completeness", "Observed/(observed+missing) intervals in the last round's window.")
	c.m.coverage = o.Gauge("sdfm_cp_round_coverage", "Best-candidate coverage in the last round.")
	c.m.p98 = o.Gauge("sdfm_cp_round_p98_rate", "Best-candidate p98 promotion rate in the last round.")
	c.m.ckptWrites = o.Counter("sdfm_cp_ckpt_writes_total", "Checkpoint snapshots written.")
	c.m.ckptErrors = o.Counter("sdfm_cp_ckpt_errors_total", "Checkpoint write or prune failures.")
	c.m.ckptSkipped = o.Counter("sdfm_cp_ckpt_restore_skipped_total", "Checkpoint files skipped during restore (torn or corrupt).")
	c.m.ckptGen = o.Gauge("sdfm_cp_ckpt_generation", "Newest checkpoint generation written or restored.")
}

// stripeFor hashes an agent ID onto its lock stripe: FNV-1a 32 with
// hash/fnv's offset basis and prime, hand-rolled with the state in a
// register because it runs on every Report.
func (c *Controller) stripeFor(agentID string) *stripe {
	const offset32, prime32 uint32 = 2166136261, 16777619
	h := offset32
	for i := 0; i < len(agentID); i++ {
		h = (h ^ uint32(agentID[i])) * prime32
	}
	return &c.stripes[h%numStripes]
}

// Incumbent returns the currently deployed fleet-wide configuration.
func (c *Controller) Incumbent() core.Params {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.incumbent
}

// Register adds an agent (idempotently) and returns its current
// parameter assignment. Registration is control-plane work (it mutates
// the sorted ring-assignment list), so unlike Report it takes the
// control mutex.
func (c *Controller) Register(req RegisterRequest) (RegisterResponse, error) {
	if req.AgentID == "" {
		return RegisterResponse{}, fmt.Errorf("controlplane: empty agent id")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.draining.Load() {
		return RegisterResponse{}, ErrDraining
	}
	s := c.stripeFor(req.AgentID)
	s.mu.Lock()
	defer s.mu.Unlock()
	a, ok := s.agents[req.AgentID]
	if !ok {
		a = &ckpt.Agent{ID: req.AgentID, Params: c.incumbent, Epoch: c.epoch.Load(), LastTS: -1}
		s.agents[req.AgentID] = a
		i := sort.SearchStrings(c.ids, req.AgentID)
		c.ids = append(c.ids, "")
		copy(c.ids[i+1:], c.ids[i:])
		c.ids[i] = req.AgentID
	}
	return RegisterResponse{Params: a.Params, Epoch: a.Epoch}, nil
}

// Report enqueues an agent's telemetry entries onto its bounded queue.
// Entries beyond the queue's free capacity are dropped and accounted —
// the response's Dropped and QueueFree fields are the explicit
// backpressure signal (an agent seeing drops should slow down or shed
// load; the controller never blocks an ingest call). Accepted entries
// are copied into the queue, so the caller keeps req.Entries and may
// reuse its array as soon as Report returns (the HTTP server does).
//
// This is the ingest hot path: it takes exactly one stripe mutex, never
// the control mutex, so reports from agents on different stripes run
// fully in parallel and no tuning round, metrics scrape, or statusz
// snapshot ever stalls it.
func (c *Controller) Report(req ReportRequest) (ReportResponse, error) {
	s := c.stripeFor(req.AgentID)
	s.mu.Lock()
	if c.draining.Load() {
		s.mu.Unlock()
		return ReportResponse{}, ErrDraining
	}
	a, ok := s.agents[req.AgentID]
	if !ok {
		s.mu.Unlock()
		return ReportResponse{}, fmt.Errorf("%w: %q", ErrUnknownAgent, req.AgentID)
	}
	a.Reports++
	s.nReports++
	s.nReceived += uint64(len(req.Entries))
	free := c.cfg.QueueCap - len(a.Queue)
	if free < 0 {
		free = 0
	}
	accepted := len(req.Entries)
	if accepted > free {
		accepted = free
	}
	a.Queue = append(a.Queue, req.Entries[:accepted]...)
	dropped := len(req.Entries) - accepted
	a.Dropped += uint64(dropped)
	s.nDropped += uint64(dropped)
	s.queued += accepted
	for _, e := range req.Entries[:accepted] {
		if e.TimestampSec > a.LastTS {
			a.LastTS = e.TimestampSec
		}
	}
	resp := ReportResponse{
		Accepted:  accepted,
		Dropped:   dropped,
		QueueFree: c.cfg.QueueCap - len(a.Queue),
		Epoch:     c.epoch.Load(),
	}
	s.mu.Unlock()
	return resp, nil
}

// Poll returns an agent's current parameter assignment and epoch.
func (c *Controller) Poll(req PollRequest) (PollResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stripeFor(req.AgentID)
	s.mu.Lock()
	defer s.mu.Unlock()
	a, ok := s.agents[req.AgentID]
	if !ok {
		return PollResponse{}, fmt.Errorf("%w: %q", ErrUnknownAgent, req.AgentID)
	}
	return PollResponse{Params: a.Params, Epoch: a.Epoch, Incumbent: c.incumbent}, nil
}

// TickReport summarizes one Tick.
type TickReport struct {
	// Drained entries moved from agent queues into the tuning window.
	Drained int
	// RejectedCorrupt / RejectedInvalid entries failed checksum or schema
	// validation and were dropped with accounting.
	RejectedCorrupt int
	RejectedInvalid int
	// Remaining entries still queued after this tick (batch bound hit).
	Remaining int
	// RoundRan reports whether this tick's window crossed RoundEvery and
	// a tuning round was executed.
	RoundRan bool
	Round    *RoundReport
	// Checkpointed reports whether this tick's telemetry clock crossed
	// CheckpointEvery and a snapshot was cut (the file write completes
	// asynchronously; failures are accounted in sdfm_cp_ckpt_errors_total).
	Checkpointed bool
}

// Tick drains agent queues into the tuning window — at most
// BatchSize entries per agent, in sorted agent order across all stripes,
// so one tick's work is bounded and its ingest order (and therefore
// every round's input) is deterministic regardless of the stripe count —
// validating every entry (schema and checksum) and accounting rejects.
// Each agent's stripe mutex is held only long enough to splice its batch
// out of the queue; validation and the window fold run under the
// control mutex alone, so concurrent Reports keep landing while a tick
// digests. When the drained window spans RoundEvery of telemetry time,
// Tick runs a tuning round before returning. The daemon calls Tick on a
// wall-clock ticker; deterministic harnesses call it at interval
// boundaries.
func (c *Controller) Tick() TickReport {
	c.mu.Lock()
	var rep TickReport
	scratch, sums, keySums, slots := c.drainScratch, c.sumScratch, c.keyScratch, c.slotScratch
	for _, id := range c.ids {
		s := c.stripeFor(id)
		s.mu.Lock()
		a := s.agents[id]
		n := len(a.Queue)
		if n > c.cfg.BatchSize {
			n = c.cfg.BatchSize
		}
		if n == len(a.Queue) {
			// The whole queue drains: the tick takes its buffer and the
			// agent gets the tick's emptied one, so nothing is copied.
			scratch, a.Queue = a.Queue, scratch[:0]
		} else {
			scratch = append(scratch[:0], a.Queue[:n]...)
			rest := copy(a.Queue, a.Queue[n:])
			clear(a.Queue[rest:]) // see below: no stale entry outlives its drain
			a.Queue = a.Queue[:rest]
		}
		s.queued -= n
		rep.Remaining += len(a.Queue)
		s.mu.Unlock()
		// One job lookup per entry answers both where it folds and its
		// key's checksum prefix.
		slots, keySums = c.window.Resolve(slots[:0], keySums[:0], scratch)
		sums = telemetry.AppendChecksumsKeyed(sums[:0], scratch, keySums)
		for i := range scratch {
			e := &scratch[i]
			if err := e.Validate(len(telemetry.DefaultThresholds)); err != nil {
				rep.RejectedInvalid++
				c.nInvalid++
				continue
			}
			if sums[i] != e.Checksum {
				rep.RejectedCorrupt++
				c.nCorrupt++
				continue
			}
			c.ingestLocked(e, slots[i])
			rep.Drained++
		}
		// The window keeps only the entries' values, so nothing may keep
		// the entries: the buffer goes to the next agent's queue, and a
		// stale entry there would pin the decode arena its tails share.
		clear(scratch)
	}
	c.drainScratch, c.sumScratch, c.keyScratch, c.slotScratch = scratch[:0], sums[:0], keySums[:0], slots[:0]
	trigger := !c.roundInFlight && c.window.Len() > 0 &&
		c.windowMax-c.windowStart >= c.roundSec
	c.mu.Unlock()
	if trigger {
		if rr, err := c.RunRound(); err == nil {
			rep.RoundRan = true
			rep.Round = &rr
		}
	}
	if c.cfg.CheckpointDir != "" {
		rep.Checkpointed = c.maybeCheckpoint()
	}
	return rep
}

// ingestTotalsLocked sums the striped ingest counters into one view.
// Caller holds the control mutex; each stripe mutex is taken briefly.
func (c *Controller) ingestTotalsLocked() (IngestStats, int) {
	var t IngestStats
	queued := 0
	for i := range c.stripes {
		s := &c.stripes[i]
		s.mu.Lock()
		t.Reports += s.nReports
		t.Received += s.nReceived
		t.DroppedBackpressure += s.nDropped
		queued += s.queued
		s.mu.Unlock()
	}
	t.Ingested = c.nIngested
	t.RejectedCorrupt = c.nCorrupt
	t.RejectedInvalid = c.nInvalid
	return t, queued
}

// ingestLocked folds one validated entry into the tuning window at its
// job slot (Resolve's answer) and advances the telemetry clocks.
func (c *Controller) ingestLocked(e *telemetry.Entry, slot int) {
	c.foldLocked(e, slot)
	if e.TimestampSec > c.telemetryMax {
		c.telemetryMax = e.TimestampSec
	}
	if c.ckptBase < 0 {
		// The first entry after a checkpoint (or ever) starts the
		// checkpoint cadence, the way a window's first entry starts the
		// round cadence.
		c.ckptBase = e.TimestampSec
	}
	c.nIngested++
}

// foldLocked adds one entry to the window and its bounds.
func (c *Controller) foldLocked(e *telemetry.Entry, slot int) {
	if c.window.Len() == 0 {
		c.windowStart, c.windowMax = e.TimestampSec, e.TimestampSec
	} else if e.TimestampSec > c.windowMax {
		c.windowMax = e.TimestampSec
	}
	c.window.Fold(slot, e)
}

// RoundReport is the outcome of one tuning round: the window it judged,
// the GP-bandit's candidate, and the staged-rollout decision. It is the
// checkpoint's round record, so the history restores without a copy.
type RoundReport = ckpt.Round

// roundWindow is the window a round judges, taken under the mutex.
type roundWindow struct {
	compiled *model.StreamCompiler
	entries  int
	startSec int64
	endSec   int64
}

// beginRoundLocked hands the (non-empty) window to a round and leaves
// the next, empty one behind, which knows the jobs this one held.
// Entries ingested after this belong to the next round.
func (c *Controller) beginRoundLocked() roundWindow {
	w := roundWindow{
		compiled: c.window,
		entries:  c.window.Len(),
		startSec: c.windowStart,
		endSec:   c.windowMax,
	}
	c.window = c.window.Next()
	c.windowStart = 0
	c.windowMax = 0
	c.roundInFlight = true
	return w
}

// RunRound runs a tuning round on the current window regardless of its
// span. Tick calls it when the window spans RoundEvery; called directly it
// is the admin override (cmd/sdfmd's POST /v1/round) and the drain-time
// flush hook. It takes the window under the control mutex, releases every
// lock, and runs the round pipeline with ingest fully live: Reports land
// on their stripes and Ticks keep folding the *next* window while this
// round's Finish→Autotune→StagedRollout churns.
func (c *Controller) RunRound() (RoundReport, error) {
	c.mu.Lock()
	if c.roundInFlight {
		c.mu.Unlock()
		return RoundReport{}, ErrRoundInFlight
	}
	if c.window.Len() == 0 {
		c.mu.Unlock()
		return RoundReport{}, ErrNoTelemetry
	}
	w := c.beginRoundLocked()
	incumbent := c.incumbent
	c.mu.Unlock()

	rr := c.executeRound(w, incumbent)

	c.mu.Lock()
	rr.Round = len(c.rounds) + 1
	c.incumbent = rr.Chosen
	c.rounds = append(c.rounds, rr)
	c.roundInFlight = false
	c.m.rounds.Inc()
	if !rr.Accepted {
		c.m.rollbacks.Inc()
	}
	c.m.tunerEvals.AddInt(rr.TunerEvals)
	c.m.gaps.SetInt(rr.GapIntervals)
	c.m.complete.Set(rr.Completeness)
	c.m.coverage.Set(rr.Coverage)
	c.m.p98.Set(rr.P98Rate)
	c.mu.Unlock()
	if c.cfg.OnRound != nil {
		c.cfg.OnRound(rr)
	}
	return rr, nil
}

// executeRound runs the tune-and-push pipeline on one window. It holds no
// locks while it finishes the window's compile and runs the GP search;
// stage pushes re-acquire the mutexes briefly to move agent rings.
func (c *Controller) executeRound(w roundWindow, incumbent core.Params) RoundReport {
	rr := RoundReport{
		WindowStartSec: w.startSec,
		WindowEndSec:   w.endSec,
		Entries:        w.entries,
		Chosen:         incumbent,
	}
	ct := w.compiled.Finish()
	rr.Jobs = ct.Jobs()
	res, err := tuner.Autotune(tuner.CompiledObjective(ct, c.cfg.SLO), c.cfg.Tuner)
	rr.TunerEvals = len(res.History)
	if err != nil {
		rr.Reason = "autotune failed; incumbent retained"
		rr.Err = err.Error()
		return rr
	}
	rr.Candidate = res.Best.Params
	rr.Coverage = res.Best.Result.Coverage
	rr.P98Rate = res.Best.Result.P98Rate
	rr.GapIntervals = res.Best.Result.GapIntervals
	rr.Completeness = res.Best.Result.Completeness

	// Staged push: each ring's health check replays that ring's slice of
	// the window, and the ring's agents are switched to the candidate
	// *before* the check — mid-stage state agents observe through Poll.
	stageObj := tuner.CompiledStageObjective(ct, model.Config{SLO: c.cfg.SLO}, len(c.cfg.Stages))
	push := func(p core.Params, st tuner.RolloutStage, idx int) (model.FleetResult, error) {
		c.assignFraction(p, st.Fraction)
		return stageObj(p, st, idx)
	}
	dep, err := tuner.StagedRollout(res.Best.Params, incumbent, push, c.cfg.Stages, c.cfg.SLO)
	if err != nil {
		// Objective failure: pull every ring back to the incumbent.
		c.assignFraction(incumbent, 1)
		rr.Reason = "staged rollout objective failed; incumbent restored"
		rr.Err = err.Error()
		return rr
	}
	rr.Accepted = dep.Accepted
	rr.Chosen = dep.Chosen
	rr.RolledBackAt = dep.RolledBackAt
	if dep.Accepted {
		rr.Reason = fmt.Sprintf("accepted after %d stages", len(dep.Stages))
	} else {
		last := dep.Stages[len(dep.Stages)-1]
		rr.Reason = fmt.Sprintf("rolled back at %q: %s", dep.RolledBackAt, last.Reason)
		if dep.Err != nil {
			rr.Err = dep.Err.Error()
		}
	}
	// Converge every agent onto the decision: the accepted candidate
	// fleet-wide, or the incumbent after a rollback.
	c.assignFraction(rr.Chosen, 1)
	return rr
}

// assignFraction moves the first ceil(frac × agents) agents (sorted by
// ID — ring membership is a stable prefix, so canary agents stay in every
// later ring) onto p. The epoch advances only when an assignment actually
// changed.
func (c *Controller) assignFraction(p core.Params, frac float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := int(math.Ceil(frac * float64(len(c.ids))))
	if n > len(c.ids) {
		n = len(c.ids)
	}
	changed := false
	for _, id := range c.ids[:n] {
		s := c.stripeFor(id)
		s.mu.Lock()
		if a := s.agents[id]; a.Params != p {
			a.Params = p
			changed = true
		}
		s.mu.Unlock()
	}
	if changed {
		e := c.epoch.Add(1)
		for _, id := range c.ids[:n] {
			s := c.stripeFor(id)
			s.mu.Lock()
			s.agents[id].Epoch = e
			s.mu.Unlock()
		}
	}
	c.m.stagePushes.Inc()
}

// Rounds returns the completed round reports, oldest first.
func (c *Controller) Rounds() []RoundReport {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]RoundReport(nil), c.rounds...)
}

// DrainReport summarizes a graceful drain.
type DrainReport struct {
	// Drained entries flushed from agent queues during the drain.
	Drained int
	// RejectedCorrupt/RejectedInvalid entries dropped during the drain.
	RejectedCorrupt int
	RejectedInvalid int
	// Ticks taken to empty every queue.
	Ticks int
}

// Drain flushes every agent queue into the tuning window — looping Tick
// until no entries remain, batch bounds included — and stops accepting
// new registrations and reports. It is the graceful-shutdown hook: after
// the HTTP server stops accepting connections, Drain guarantees every
// in-flight batch already acknowledged to an agent reaches the window
// (and is judged by the next round) instead of dying in a queue.
func (c *Controller) Drain() DrainReport {
	c.draining.Store(true)
	// Stripe barrier: Report checks draining inside the stripe critical
	// section, so once each stripe's mutex has been cycled here, every
	// report that will ever be acknowledged has already enqueued — the
	// tick loop below cannot race an entry into a just-emptied queue.
	for i := range c.stripes {
		c.stripes[i].mu.Lock()
		c.stripes[i].mu.Unlock() //lint:ignore SA2001 empty section is the barrier
	}
	var rep DrainReport
	for {
		t := c.Tick()
		rep.Drained += t.Drained
		rep.RejectedCorrupt += t.RejectedCorrupt
		rep.RejectedInvalid += t.RejectedInvalid
		rep.Ticks++
		if t.Remaining == 0 {
			return rep
		}
	}
}

// Close ends the controller's life: it seals ingest and flushes every
// queue (Drain), then joins the background checkpoint writer. When it
// returns, no goroutine the controller started is running and none will
// start, so nothing touches CheckpointDir behind the caller's back — the
// caller may remove the directory, or boot a successor from it. Every
// owner of a controller calls Close when done with it; calling it again
// is harmless. Read-only methods and Checkpoint (which writes on the
// caller's goroutine) keep working afterwards.
func (c *Controller) Close() {
	c.Drain()
	c.ckptSchedMu.Lock()
	c.closed = true
	c.ckptWG.Wait()
	c.ckptSchedMu.Unlock()
}

// AgentStatus is one agent's statusz row.
type AgentStatus struct {
	ID            string      `json:"id"`
	QueueDepth    int         `json:"queue_depth"`
	Dropped       uint64      `json:"dropped"`
	Reports       uint64      `json:"reports"`
	LastReportSec int64       `json:"last_report_sec"`
	Params        core.Params `json:"params"`
	Epoch         int64       `json:"epoch"`
}

// IngestStats are the controller's lifetime ingest counters, the
// checkpoint's counters section.
type IngestStats = ckpt.Counters

// Status is the controller's introspection snapshot (cmd/sdfmd's
// /statusz).
type Status struct {
	Agents    []AgentStatus `json:"agents"`
	Epoch     int64         `json:"epoch"`
	Incumbent core.Params   `json:"incumbent"`
	Draining  bool          `json:"draining"`

	WindowStartSec int64 `json:"window_start_sec"`
	WindowEndSec   int64 `json:"window_end_sec"`
	WindowEntries  int   `json:"window_entries"`

	Ingest IngestStats `json:"ingest"`

	Rounds    int          `json:"rounds"`
	LastRound *RoundReport `json:"last_round,omitempty"`
}

// Status returns a consistent snapshot of the controller's state.
func (c *Controller) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	ingest, _ := c.ingestTotalsLocked()
	st := Status{
		Epoch:          c.epoch.Load(),
		Incumbent:      c.incumbent,
		Draining:       c.draining.Load(),
		WindowStartSec: -1, // an empty window has no start
		WindowEndSec:   c.windowMax,
		WindowEntries:  c.window.Len(),
		Ingest:         ingest,
		Rounds:         len(c.rounds),
	}
	for _, id := range c.ids {
		s := c.stripeFor(id)
		s.mu.Lock()
		a := s.agents[id]
		st.Agents = append(st.Agents, AgentStatus{
			ID:            a.ID,
			QueueDepth:    len(a.Queue),
			Dropped:       a.Dropped,
			Reports:       a.Reports,
			LastReportSec: a.LastTS,
			Params:        a.Params,
			Epoch:         a.Epoch,
		})
		s.mu.Unlock()
	}
	if c.window.Len() > 0 {
		st.WindowStartSec = c.windowStart
	}
	if len(c.rounds) > 0 {
		last := c.rounds[len(c.rounds)-1]
		st.LastRound = &last
	}
	return st
}

// RenderMetrics writes hub's Prometheus exposition to w. The striped
// ingest counters are summed once and the exposition is rendered into a
// buffer under the control mutex (obs instruments are single-writer, not
// atomic, and the read-at-export series read controller state); the
// buffer is written to w with no locks held, so a slow scraper blocks
// neither ingest — which never needed the control mutex — nor ticks and
// rounds.
func (c *Controller) RenderMetrics(hub *obs.Multi, w io.Writer) error {
	c.mu.Lock()
	c.scrape, c.scrapeQueued = c.ingestTotalsLocked()
	var buf bytes.Buffer
	err := hub.WritePrometheus(&buf)
	c.mu.Unlock()
	if err != nil {
		return err
	}
	_, err = w.Write(buf.Bytes())
	return err
}
