package tuner

import (
	"errors"
	"fmt"
	"hash/fnv"

	"sdfm/internal/core"
	"sdfm/internal/model"
	"sdfm/internal/telemetry"
)

// Sentinel errors callers can branch on with errors.Is.
var (
	// ErrSLOViolated means a candidate breached the promotion-rate SLO
	// during a rollout stage and was rolled back.
	ErrSLOViolated = errors.New("tuner: promotion-rate SLO violated")
	// ErrNoObservations means a tuning run produced no evaluations to pick
	// a winner from.
	ErrNoObservations = errors.New("tuner: no observations")
)

// RolloutStage is one ring of a staged deployment: a named fraction of
// the fleet that receives the candidate parameters before the next,
// larger ring does.
type RolloutStage struct {
	Name string
	// Fraction of jobs carrying the candidate in this stage, in (0, 1].
	Fraction float64
}

// DefaultRolloutStages mirrors the paper's deployment process (§5.3):
// a small canary, a modest early ring, then the fleet.
var DefaultRolloutStages = []RolloutStage{
	{Name: "canary", Fraction: 0.01},
	{Name: "early", Fraction: 0.10},
	{Name: "half", Fraction: 0.50},
	{Name: "fleet", Fraction: 1.00},
}

// ValidateStages checks deployment rings: each fraction in (0, 1], and
// no ring smaller than the one before it, since a ring holds every job the
// rings before it reached.
func ValidateStages(stages []RolloutStage) error {
	prev := 0.0
	for _, st := range stages {
		if st.Fraction <= 0 || st.Fraction > 1 {
			return fmt.Errorf("tuner: stage %q has fraction %v outside (0, 1]", st.Name, st.Fraction)
		}
		if st.Fraction < prev {
			return fmt.Errorf("tuner: stage %q shrinks the rollout to %v from %v", st.Name, st.Fraction, prev)
		}
		prev = st.Fraction
	}
	return nil
}

// StageObjective evaluates candidate params on one rollout stage — live
// monitoring of the ring that currently carries the candidate.
type StageObjective func(p core.Params, stage RolloutStage, idx int) (model.FleetResult, error)

// StageReport is one stage's health check outcome.
type StageReport struct {
	Stage   RolloutStage
	Result  model.FleetResult
	Healthy bool
	Reason  string
}

// RolloutReport is the outcome of a staged rollout.
type RolloutReport struct {
	// Accepted is true when every stage passed and the candidate now owns
	// the fleet.
	Accepted bool
	// Chosen is the configuration left deployed: the candidate on
	// acceptance, the incumbent after a rollback.
	Chosen core.Params
	// Stages holds the per-stage health checks, in order, up to and
	// including the failing stage.
	Stages []StageReport
	// RolledBackAt names the failing stage ("" on acceptance).
	RolledBackAt string
	// Err is non-nil on rollback and wraps ErrSLOViolated (or
	// ErrNoObservations when a stage had no enabled samples to judge).
	Err error
}

// StagedRollout pushes a candidate configuration through deployment rings
// with a health check after each: if the live 98th-percentile promotion
// rate on the ring breaches the SLO — or the ring produced no
// observations to judge health by — the rollout stops mid-deployment and
// the fleet rolls back to the incumbent (§5.3's multi-stage deployment
// with monitoring and rollback). The error return is reserved for
// objective failures; a rollback is a normal outcome reported in
// RolloutReport.Err.
func StagedRollout(candidate, incumbent core.Params, obj StageObjective, stages []RolloutStage, slo core.SLO) (RolloutReport, error) {
	if len(stages) == 0 {
		stages = DefaultRolloutStages
	}
	if err := ValidateStages(stages); err != nil {
		return RolloutReport{}, err
	}
	rep := RolloutReport{Chosen: candidate}
	for i, st := range stages {
		fr, err := obj(candidate, st, i)
		if err != nil {
			return RolloutReport{}, fmt.Errorf("tuner: stage %q objective: %w", st.Name, err)
		}
		sr := StageReport{Stage: st, Result: fr, Healthy: true}
		switch ok, _ := slo.Check(fr.P98Rate); {
		case fr.EnabledIntervals == 0:
			sr.Healthy = false
			sr.Reason = "no enabled observations in stage"
			rep.Err = fmt.Errorf("tuner: stage %q: %w", st.Name, ErrNoObservations)
		case !ok:
			sr.Healthy = false
			sr.Reason = fmt.Sprintf("stage p98 rate %.5f/min exceeds SLO %.5f/min", fr.P98Rate, slo.TargetRatePerMin)
			rep.Err = fmt.Errorf("tuner: stage %q: p98 %.5f > %.5f: %w",
				st.Name, fr.P98Rate, slo.TargetRatePerMin, ErrSLOViolated)
		default:
			sr.Reason = fmt.Sprintf("p98 %.5f/min within SLO, coverage %.3f", fr.P98Rate, fr.Coverage)
		}
		rep.Stages = append(rep.Stages, sr)
		if !sr.Healthy {
			rep.Accepted = false
			rep.Chosen = incumbent
			rep.RolledBackAt = st.Name
			return rep, nil
		}
	}
	rep.Accepted = true
	return rep, nil
}

// CompiledObjective builds an Objective that replays a compiled trace
// under slo. Compile once, then every evaluation is a pure replay, so a
// whole tuning session costs one compile.
func CompiledObjective(ct *model.CompiledTrace, slo core.SLO) Objective {
	return func(p core.Params) (model.FleetResult, error) {
		return ct.Run(model.Config{Params: p, SLO: slo})
	}
}

// TraceStageObjective is CompiledStageObjective for a trace still held as
// entries; it compiles the trace first. A caller that already holds the
// compiled form should pass that instead.
func TraceStageObjective(trace *telemetry.Trace, cfg model.Config, nStages int) StageObjective {
	return CompiledStageObjective(model.Compile(trace), cfg, nStages)
}

// CompiledStageObjective builds a StageObjective from a compiled trace:
// each stage replays the jobs hashed into its fleet fraction over that
// stage's slice of the trace timeline (the rollout advances through time
// as it advances through rings). Job-to-ring assignment is a stable hash
// of the job key, so a job that carried the candidate in the canary still
// carries it in every later ring. A trace spanning fewer seconds than
// there are stages leaves the early slices empty; their rings report no
// enabled observations and StagedRollout rolls back.
func CompiledStageObjective(ct *model.CompiledTrace, cfg model.Config, nStages int) StageObjective {
	if nStages <= 0 {
		nStages = len(DefaultRolloutStages)
	}
	minTS, maxTS := ct.TimeBounds()
	span := maxTS - minTS + 1
	return func(p core.Params, stage RolloutStage, idx int) (model.FleetResult, error) {
		lo := minTS + span*int64(idx)/int64(nStages)
		hi := minTS + span*int64(idx+1)/int64(nStages)
		ring := ct.Slice(lo, hi, func(k telemetry.JobKey) bool { return jobHash(k) < stage.Fraction })
		mc := cfg
		mc.Params = p
		return ring.Run(mc)
	}
}

// jobHash maps a job key to a stable point in [0, 1). FNV alone leaves
// the high bits untouched by trailing-byte differences (similar job names
// would all land in the same cohort), so the digest is avalanched first.
func jobHash(k telemetry.JobKey) float64 {
	h := fnv.New64a()
	h.Write([]byte(k.Cluster))
	h.Write([]byte{0})
	h.Write([]byte(k.Machine))
	h.Write([]byte{0})
	h.Write([]byte(k.Job))
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return float64(x>>11) / float64(1<<53)
}
