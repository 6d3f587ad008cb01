// Package sdfm is a software-defined far memory system for
// warehouse-scale computing, reproducing "Software-Defined Far Memory in
// Warehouse-Scale Computers" (Lagar-Cavilla et al., ASPLOS 2019).
//
// The system proactively compresses cold memory pages into an in-DRAM
// zswap pool, creating a far-memory tier with no extra hardware. Its
// control plane identifies cold pages per job under a promotion-rate SLO
// (§4), a node agent picks each job's cold-age threshold (§5.2), a
// telemetry pipeline feeds an offline "fast far memory model" (§5.3), and
// a GP-Bandit autotuner optimizes the control-plane parameters fleet-wide
// without a human in the loop.
//
// This package is the public facade. The building blocks live in
// internal/ packages and are re-exported here by alias:
//
//   - Machine simulates one production machine: per-job memcgs with
//     accessed-bit tracking, the kstaled scanner, kreclaimd, a zswap pool
//     backed by a real LZ77 compressor and a zsmalloc arena, and the node
//     agent control loop.
//   - Cluster schedules workloads over machines Borg-style, with
//     priorities, eviction, and A/B machine groups.
//   - GenerateFleetTrace synthesizes warehouse-scale telemetry traces;
//     Replay runs the fast far memory model over them; Autotune searches
//     (K, S) with GP-UCB against the model.
//
// See the examples/ directory for runnable end-to-end scenarios and
// DESIGN.md for the paper-to-package map.
package sdfm

import (
	"io"
	"time"

	"sdfm/internal/audit"
	"sdfm/internal/cluster"
	"sdfm/internal/controlplane"
	"sdfm/internal/controlplane/wire"
	"sdfm/internal/core"
	"sdfm/internal/fault"
	"sdfm/internal/fleet"
	"sdfm/internal/model"
	"sdfm/internal/node"
	"sdfm/internal/obs"
	"sdfm/internal/tco"
	"sdfm/internal/telemetry"
	"sdfm/internal/tracestore"
	"sdfm/internal/tuner"
	"sdfm/internal/workload"
	"sdfm/internal/zswap"
)

// Control plane (§4): the paper's primary contribution.
type (
	// SLO is the far-memory performance objective: promotions per minute
	// bounded by a fraction of the working set.
	SLO = core.SLO
	// Params are the control-plane tunables: the K-th percentile of the
	// best-threshold pool and the S-second startup blackout.
	Params = core.Params
	// Controller runs the per-job cold-age threshold algorithm.
	Controller = core.Controller
	// ControllerConfig configures a Controller.
	ControllerConfig = core.ControllerConfig
)

// DefaultSLO is the production setting (0.2% of WSS per minute, 120 s
// minimum threshold).
var DefaultSLO = core.DefaultSLO

// DefaultParams is the paper's hand-tuned initial configuration.
var DefaultParams = core.DefaultParams

// NewController creates a per-job threshold controller.
func NewController(cfg ControllerConfig) (*Controller, error) {
	return core.NewController(cfg)
}

// Machine simulation (§5.1-5.2).
type (
	// Machine is one simulated production machine.
	Machine = node.Machine
	// MachineConfig configures a Machine.
	MachineConfig = node.Config
	// Job is a job instance on a machine.
	Job = node.Job
	// Mode selects proactive (the paper's system), reactive (stock
	// zswap), or disabled far memory.
	Mode = node.Mode
	// Workload generates a job's memory accesses.
	Workload = workload.Workload
	// WorkloadConfig instantiates a Workload.
	WorkloadConfig = workload.Config
	// Archetype describes a class of production workload.
	Archetype = workload.Archetype
)

// Far-memory modes.
const (
	ModeProactive = node.ModeProactive
	ModeReactive  = node.ModeReactive
	ModeDisabled  = node.ModeDisabled
)

// Standard workload archetypes.
var (
	WebFrontend    = workload.WebFrontend
	BigtableServer = workload.BigtableServer
	BatchAnalytics = workload.BatchAnalytics
	MLTraining     = workload.MLTraining
	KVCache        = workload.KVCache
	LogProcessor   = workload.LogProcessor
	Archetypes     = workload.Archetypes
)

// NewMachine builds a machine.
func NewMachine(cfg MachineConfig) (*Machine, error) { return node.NewMachine(cfg) }

// NewWorkload instantiates a workload.
func NewWorkload(cfg WorkloadConfig) (*Workload, error) { return workload.New(cfg) }

// Far-memory tiers (§3, §7).
type (
	// FarMemory is the device-agnostic tier interface the control plane
	// drives.
	FarMemory = zswap.FarMemory
	// Pool is the zswap compressed in-DRAM tier.
	Pool = zswap.Pool
	// DevicePool models hardware tiers (NVM, remote memory, Z-SSD).
	DevicePool = zswap.DevicePool
	// TieredPool combines a fast hardware tier-1 with a zswap tier-2
	// under one control plane (the paper's §8 end state).
	TieredPool = zswap.TieredPool
	// DeviceProfile describes a hardware far-memory device.
	DeviceProfile = zswap.DeviceProfile
)

// Hardware tier profiles from the paper's related-work discussion.
var (
	ProfileNVM          = zswap.ProfileNVM
	ProfileRemoteMemory = zswap.ProfileRemoteMemory
	ProfileZSSD         = zswap.ProfileZSSD
)

// NewPool creates a zswap pool. Options: zswap.WithValidation,
// zswap.WithCapacity, zswap.WithCutoff, zswap.WithCost.
func NewPool(opts ...zswap.Option) *Pool { return zswap.NewPool(opts...) }

// NewDevicePool creates a hardware-device far-memory tier.
func NewDevicePool(p DeviceProfile) *DevicePool { return zswap.NewDevicePool(p) }

// NewTieredPool combines a capacity-bounded hardware tier-1 with a zswap
// tier-2; pages demoted at an age below splitAge scan periods prefer the
// fast tier.
func NewTieredPool(tier1 DeviceProfile, tier2 *Pool, splitAge uint8) *TieredPool {
	return zswap.NewTieredPool(tier1, tier2, splitAge)
}

// Cluster scheduling.
type (
	// Cluster is a Borg-like cluster of machines.
	Cluster = cluster.Cluster
	// ClusterConfig configures a Cluster.
	ClusterConfig = cluster.Config
)

// NewCluster builds a cluster.
func NewCluster(cfg ClusterConfig) (*Cluster, error) { return cluster.New(cfg) }

// Telemetry and the fast far memory model (§5.3).
type (
	// Trace is a fleet telemetry trace.
	Trace = telemetry.Trace
	// TraceEntry is one job-interval record.
	TraceEntry = telemetry.Entry
	// JobKey identifies a job in the fleet.
	JobKey = telemetry.JobKey
	// FleetConfig sizes a synthetic fleet.
	FleetConfig = fleet.Config
	// ModelConfig configures a fast-model replay.
	ModelConfig = model.Config
	// CompiledTrace is a replay-optimized trace: compile once, Slice out a
	// time range × job subset without copying, Run one configuration per
	// call or Timeline a staged schedule, with no per-evaluation trace
	// preparation.
	CompiledTrace = model.CompiledTrace
	// FleetResult is the model's fleet-level output.
	FleetResult = model.FleetResult
	// RolloutPhase is one stage of the staged parameter schedule
	// CompiledTrace.Timeline replays.
	RolloutPhase = model.Phase
	// TimelinePoint is one interval of the coverage series it returns.
	TimelinePoint = model.TimelinePoint
)

// GenerateFleetTrace synthesizes warehouse-scale telemetry.
func GenerateFleetTrace(cfg FleetConfig) (*Trace, error) { return fleet.Generate(cfg) }

// EntrySink receives telemetry entries as they are produced: a *Trace
// buffers them in memory, a *TraceWriter streams them to disk.
type EntrySink = telemetry.EntrySink

// GenerateFleetTraceTo streams synthetic fleet telemetry into sink
// interval by interval — with a TraceWriter sink, a warehouse-scale
// trace goes straight to disk and is never held in memory.
func GenerateFleetTraceTo(cfg FleetConfig, sink EntrySink) error {
	return fleet.GenerateTo(cfg, sink)
}

// DefaultTraceMeta is the trace-wide metadata every generated trace
// carries: the production scan period and predefined threshold set.
func DefaultTraceMeta() TraceMeta { return tracestore.MetaOf(telemetry.NewTrace()) }

// Replay runs the fast far memory model over a trace, compiling it
// internally. To evaluate many configurations over one trace, CompileTrace
// once and call CompiledTrace.Run per configuration instead.
func Replay(trace *Trace, cfg ModelConfig) (FleetResult, error) { return model.Run(trace, cfg) }

// CompileTrace builds the replay-optimized form of a trace (§5.3's "fast"
// in fast far memory model): per-job sorted columnar series with
// precomputed gap counts and best-threshold feedback, shared by every
// subsequent CompiledTrace.Run.
func CompileTrace(trace *Trace) *CompiledTrace { return model.Compile(trace) }

// Autotuning (§5.3).
type (
	// TunerConfig configures the GP-Bandit loop.
	TunerConfig = tuner.Config
	// TunerResult is an autotuning outcome.
	TunerResult = tuner.Result
	// Objective evaluates a parameter configuration.
	Objective = tuner.Objective
)

// DefaultHeuristicCandidates are the conservative hand-tuning guesses the
// heuristic baseline evaluates.
var DefaultHeuristicCandidates = tuner.DefaultHeuristicCandidates

// Autotune searches the (K, S) space with GP-UCB against obj.
func Autotune(obj Objective, cfg TunerConfig) (TunerResult, error) { return tuner.Autotune(obj, cfg) }

// HeuristicTune evaluates a fixed candidate list (the pre-ML baseline).
func HeuristicTune(obj Objective, candidates []Params, slo SLO) (TunerResult, error) {
	return tuner.HeuristicTune(obj, candidates, slo)
}

// QualifyAndDeploy gates a candidate configuration behind a holdout run:
// a staged rollout with the holdout as its only ring, rolling back on an
// SLO violation or when the candidate was never enabled on the holdout.
func QualifyAndDeploy(candidate, incumbent Params, holdout Objective, slo SLO) (RolloutReport, error) {
	return tuner.QualifyAndDeploy(candidate, incumbent, holdout, slo)
}

// TraceObjective builds a tuner objective that replays the given trace.
// The trace is compiled once when the objective is built; each evaluation
// is a pure replay, so a full tuning session costs one compile.
func TraceObjective(trace *Trace, slo SLO) Objective {
	return CompiledObjective(model.Compile(trace), slo)
}

// Trace storage (the chunked columnar on-disk format).
type (
	// TraceHandle is an opened trace file. It stays on disk and compiles
	// out-of-core.
	TraceHandle = tracestore.Handle
	// TraceWriter streams entries into the chunked columnar format as
	// they are produced; it implements telemetry.EntrySink, so collectors
	// and fleet generation can ingest straight to disk.
	TraceWriter = tracestore.Writer
	// TraceMeta is trace-wide metadata carried in a store file's header.
	TraceMeta = tracestore.Meta
	// TraceSkipped reports damage a store reader worked around.
	TraceSkipped = tracestore.Skipped
)

// OpenTrace opens a trace file. It is not materialized: Handle.Compile
// streams chunks straight into the fast model's columnar form, so
// autotuning works on traces that never fit in memory.
func OpenTrace(path string) (*TraceHandle, error) { return tracestore.Open(path) }

// NewTraceWriter starts a store-format trace file on w.
func NewTraceWriter(w io.Writer, meta TraceMeta, opts ...tracestore.WriterOption) (*TraceWriter, error) {
	return tracestore.NewWriter(w, meta, opts...)
}

// WriteTraceStore writes an in-memory trace to w in the chunked columnar
// store format.
func WriteTraceStore(w io.Writer, trace *Trace) error {
	return tracestore.WriteTrace(w, trace)
}

// CompiledObjective builds a tuner objective over an already-compiled
// trace — the pairing for TraceHandle.Compile, which is how out-of-core
// store files reach the autotuner:
//
//	h, _ := sdfm.OpenTrace(path)
//	ct, _ := h.Compile()
//	res, _ := sdfm.Autotune(sdfm.CompiledObjective(ct, slo), cfg)
func CompiledObjective(ct *CompiledTrace, slo SLO) Objective {
	return func(p Params) (FleetResult, error) {
		return ct.Run(model.Config{Params: p, SLO: slo})
	}
}

// Fault injection and graceful degradation.
type (
	// FaultPlan is a named, seeded schedule of fault events.
	FaultPlan = fault.Plan
	// FaultEvent is one timed fault in a plan.
	FaultEvent = fault.Event
	// FaultKind enumerates injectable fault classes.
	FaultKind = fault.Kind
	// FaultInjector answers a machine's "is this fault active now?"
	// queries for one plan.
	FaultInjector = fault.Injector
	// TraceDamage reports what ApplyFaultsToTrace did to a trace.
	TraceDamage = fault.TraceDamage
	// BreakerConfig configures the per-job promotion-SLO circuit breaker
	// (the paper's §5.2 disabled mode, made automatic).
	BreakerConfig = node.BreakerConfig
	// FaultStats aggregates fault-injection and degradation counters.
	FaultStats = node.FaultStats
)

// Injectable fault kinds.
const (
	MachineCrash       = fault.MachineCrash
	TelemetryDrop      = fault.TelemetryDrop
	TelemetryCorrupt   = fault.TelemetryCorrupt
	CompressorError    = fault.CompressorError
	CompressorSlowdown = fault.CompressorSlowdown
	PressureSpike      = fault.PressureSpike
	ChurnBurst         = fault.ChurnBurst
	DaemonStall        = fault.DaemonStall
)

// DefaultFaultPlan builds a plan exercising every fault class over the
// given run duration.
func DefaultFaultPlan(seed int64, duration time.Duration) *FaultPlan {
	return fault.DefaultPlan(seed, duration)
}

// LoadFaultPlan reads and validates a JSON fault plan.
func LoadFaultPlan(r io.Reader) (*FaultPlan, error) { return fault.LoadPlan(r) }

// NewFaultInjector derives one machine's injector from a plan; a nil or
// empty plan (or one with no events for the machine) yields a nil,
// always-inert injector.
func NewFaultInjector(p *FaultPlan, machine string) *FaultInjector {
	return fault.NewInjector(p, machine)
}

// ApplyFaultsToTrace applies a plan's telemetry-drop and telemetry-corrupt
// windows to an at-rest trace.
func ApplyFaultsToTrace(p *FaultPlan, trace *Trace) TraceDamage {
	return fault.ApplyToTrace(p, trace)
}

// Invariant auditing (the correctness instrument behind the paper's
// production-trust claims; see internal/audit and internal/chaos).
type (
	// AuditConfig opts a machine or cluster into per-step invariant
	// auditing: byte conservation, histogram sums, zswap/zsmalloc
	// accounting reconciliation, breaker and watchdog state legality,
	// and counter monotonicity across restarts. The zero value is
	// disabled and costs one branch per step. Set on MachineConfig.Audit
	// or ClusterConfig.Audit.
	AuditConfig = audit.Config
	// AuditViolation is one invariant breach, attributed to a machine
	// and (when applicable) a job.
	AuditViolation = audit.Violation
	// AuditError carries the violations that failed an audited step; it
	// wraps ErrAuditViolation.
	AuditError = audit.Error
)

// ErrAuditViolation is the sentinel every audit failure wraps; branch
// with errors.Is to separate invariant breaches from ordinary
// simulation errors.
var ErrAuditViolation = audit.ErrViolation

// Staged rollout (§5.3's multi-stage deployment with monitoring).
type (
	// RolloutStage is one ring of a staged deployment.
	RolloutStage = tuner.RolloutStage
	// RolloutReport is the outcome of a staged rollout.
	RolloutReport = tuner.RolloutReport
	// StageReport is one stage's health-check outcome.
	StageReport = tuner.StageReport
	// StageObjective evaluates candidate params on one rollout stage.
	StageObjective = tuner.StageObjective
)

// DefaultRolloutStages mirrors the paper's canary-to-fleet deployment.
var DefaultRolloutStages = tuner.DefaultRolloutStages

// StagedRollout pushes a candidate through deployment rings with a live
// health check per ring, rolling the fleet back to the incumbent on an SLO
// breach mid-deployment.
func StagedRollout(candidate, incumbent Params, obj StageObjective, stages []RolloutStage, slo SLO) (RolloutReport, error) {
	return tuner.StagedRollout(candidate, incumbent, obj, stages, slo)
}

// TraceStageObjective builds a StageObjective that replays each ring's
// fraction of the fleet over that stage's slice of the trace timeline.
func TraceStageObjective(trace *Trace, cfg ModelConfig, nStages int) StageObjective {
	return tuner.TraceStageObjective(trace, cfg, nStages)
}

// Online fleet control plane: the §5.3 tuning loop as a long-lived
// service (see internal/controlplane and cmd/sdfmd). Node agents register
// with a central controller, stream telemetry through bounded queues with
// explicit backpressure, and poll for the (K, S) parameters the staged
// rollout has assigned to their ring.
type (
	// ControlPlane is the fleet controller: agent registry, bounded
	// telemetry ingest, the open tuning window, and the periodic
	// tune-and-push loop.
	ControlPlane = controlplane.Controller
	// ControlPlaneConfig configures a ControlPlane.
	ControlPlaneConfig = controlplane.Config
	// ControlPlaneStatus is the controller's introspection snapshot
	// (cmd/sdfmd's /statusz).
	ControlPlaneStatus = controlplane.Status
	// ControlPlaneRound is the outcome of one online tuning round.
	ControlPlaneRound = controlplane.RoundReport
	// ControlPlaneTransport is the agent's connection to the controller;
	// the deterministic in-process loopback and the net/http client
	// implement it identically.
	ControlPlaneTransport = controlplane.Transport
	// ControlPlaneAgent is the node-side client of the control plane.
	ControlPlaneAgent = controlplane.Agent
	// ControlPlaneClient speaks the daemon's protocol over HTTP. It
	// negotiates the binary telemetry wire format at registration and
	// falls back to JSON against servers that do not speak it; pin the
	// body encoding with its Encoding field.
	ControlPlaneClient = controlplane.Client
	// ControlPlaneEncoding selects a ControlPlaneClient's report body
	// encoding: EncodingAuto (negotiate, the default), EncodingJSON, or
	// EncodingBinary.
	ControlPlaneEncoding = controlplane.Encoding
	// ControlPlaneServer exposes a controller over HTTP (cmd/sdfmd).
	ControlPlaneServer = controlplane.Server
	// ControlPlaneSimConfig configures a deterministic loopback fleet run.
	ControlPlaneSimConfig = controlplane.SimConfig
	// ControlPlaneSimReport summarizes a loopback fleet run.
	ControlPlaneSimReport = controlplane.SimReport
	// ControlPlaneRestoreReport summarizes a checkpoint restore: what was
	// recovered and which torn/corrupt files were skipped on the way.
	ControlPlaneRestoreReport = controlplane.RestoreReport
)

// ControlPlaneClient report body encodings.
const (
	EncodingAuto   = controlplane.EncodingAuto
	EncodingJSON   = controlplane.EncodingJSON
	EncodingBinary = controlplane.EncodingBinary
)

// ControlPlaneWireContentType is the Content-Type of the binary
// telemetry report frame (internal/controlplane/wire).
const ControlPlaneWireContentType = wire.ContentType

// NewControlPlane builds a fleet controller. Close it when done: Close
// drains it and joins its background checkpoint writer.
func NewControlPlane(cfg ControlPlaneConfig) (*ControlPlane, error) { return controlplane.New(cfg) }

// RestoreControlPlane boots a controller from the newest valid
// checkpoint in cfg.CheckpointDir, skipping torn, corrupt or
// unsupported-version generations with accounting. An empty or missing
// directory (or an unset CheckpointDir) is a fresh boot, not an error.
// Given the same replayed telemetry, the restored controller's round
// decisions and final incumbent are byte-identical to a controller that
// never went down.
func RestoreControlPlane(cfg ControlPlaneConfig) (*ControlPlane, ControlPlaneRestoreReport, error) {
	return controlplane.Restore(cfg)
}

// NewControlPlaneAgent builds a node-side agent speaking over t.
func NewControlPlaneAgent(id string, t ControlPlaneTransport) *ControlPlaneAgent {
	return controlplane.NewAgent(id, t)
}

// NewControlPlaneLoopback wraps a controller in the deterministic
// in-process transport: no goroutines, no clock, byte-identical runs.
func NewControlPlaneLoopback(c *ControlPlane) ControlPlaneTransport {
	return controlplane.NewLoopback(c)
}

// NewControlPlaneClient builds an HTTP client for a live sdfmd at base,
// e.g. "http://127.0.0.1:8300".
func NewControlPlaneClient(base string) *ControlPlaneClient { return controlplane.NewClient(base) }

// NewControlPlaneServer builds the controller's HTTP facade; serve its
// Handler. hub may be nil to disable /metrics.
func NewControlPlaneServer(c *ControlPlane, hub *Obs) *ControlPlaneServer {
	return controlplane.NewServer(c, hub)
}

// RunControlPlaneSim replays a telemetry trace through a controller over
// the loopback transport as a simulated fleet of agents, optionally
// damaging the stream with a fault plan's telemetry windows.
func RunControlPlaneSim(c *ControlPlane, trace *Trace, cfg ControlPlaneSimConfig) (ControlPlaneSimReport, error) {
	return controlplane.RunSim(c, trace, cfg)
}

// Sentinel errors for errors.Is branching.
var (
	// ErrOutOfMemory: a machine could not fit its jobs even after reclaim
	// and eviction.
	ErrOutOfMemory = node.ErrOutOfMemory
	// ErrJobNotFound: no job with that name on the machine.
	ErrJobNotFound = node.ErrJobNotFound
	// ErrJobNotRunning: the operation needs a running job.
	ErrJobNotRunning = node.ErrJobNotRunning
	// ErrPromotionFailed: a far-memory page could not be promoted back.
	ErrPromotionFailed = node.ErrPromotionFailed
	// ErrPoolFull: the far-memory pool rejected a store at capacity.
	ErrPoolFull = zswap.ErrPoolFull
	// ErrStoreFailed: a far-memory store failed outright (e.g. an
	// injected transient compressor error).
	ErrStoreFailed = zswap.ErrStoreFailed
	// ErrSLOViolated: a candidate breached the promotion-rate SLO during
	// qualification or a rollout stage.
	ErrSLOViolated = tuner.ErrSLOViolated
	// ErrNoObservations: a tuning run or rollout stage had nothing to
	// judge health by.
	ErrNoObservations = tuner.ErrNoObservations
	// ErrUnknownAgent: a control-plane report or poll from an agent that
	// never registered.
	ErrUnknownAgent = controlplane.ErrUnknownAgent
	// ErrRoundInFlight: a forced tuning round while another is running.
	ErrRoundInFlight = controlplane.ErrRoundInFlight
	// ErrNoTelemetry: a forced tuning round on an empty window.
	ErrNoTelemetry = controlplane.ErrNoTelemetry
	// ErrDraining: the control plane is shutting down and no longer
	// accepts registrations or reports.
	ErrDraining = controlplane.ErrDraining
	// ErrNoCheckpointDir: a checkpoint was requested on a controller
	// configured without a CheckpointDir.
	ErrNoCheckpointDir = controlplane.ErrNoCheckpointDir
)

// Observability: the fleet-wide metrics and tracing layer. Deterministic
// (no wall clock; instruments export in stable registration order) and
// observation-only — enabling it never changes simulation results.
type (
	// Obs is the observability hub: one observer per process (a machine, a
	// generator, a tuner run), merged into a single Prometheus text
	// exposition or Chrome trace_event JSON file.
	Obs = obs.Multi
	// Observer is one process's metrics registry and tracer. Set it on
	// MachineConfig.Obs, FleetConfig.Obs, or TunerConfig.Obs; ClusterConfig
	// takes the whole hub and derives one observer per machine.
	Observer = obs.Observer
	// ObsLabel is one metric label pair.
	ObsLabel = obs.Label
)

// NewObs creates an observability hub whose base labels are stamped on
// every metric series of every observer.
func NewObs(base ...ObsLabel) *Obs { return obs.NewMulti(base...) }

// TCO arithmetic (§6.1).

// TCOSavingsFraction converts a cold-memory ceiling, coverage, and
// compression ratio into the fraction of DRAM cost saved.
func TCOSavingsFraction(coldFraction, coverage, compressionRatio float64) float64 {
	return tco.SavingsFraction(coldFraction, coverage, compressionRatio)
}

// ScanPeriod is the kstaled scan period and minimum cold-age threshold.
const ScanPeriod = 120 * time.Second
