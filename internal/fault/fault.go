// Package fault provides deterministic fault injection for the far-memory
// simulation and the graceful-degradation machinery that production
// deployment requires (§5.2–§5.3 describe disabled modes, qualification
// on holdout data, and staged rollout with rollback; this package supplies
// the failures those defenses exist for).
//
// A Plan is a named, seeded list of timed fault events: machine
// crash/restarts that drop the compressed pool, telemetry drop and
// corruption windows, transient compressor errors and slowdowns,
// memory-pressure spikes, job-churn bursts, and kstaled/kreclaimd stalls.
// Each machine derives an Injector from the plan; the node agent, the
// telemetry exporter, and the far-memory tier query it at well-defined
// points. Everything is driven by simulated time and seeded RNG streams,
// so a run under a fault plan is exactly as reproducible as a fault-free
// one — and an empty plan yields an injector that is never consulted,
// keeping fault-free runs byte-identical to builds without this package.
package fault

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"time"

	"sdfm/internal/simtime"
)

// Sentinel validation errors. Event.Validate and Plan.Validate wrap these
// so callers (cmd/fleetsim, cmd/chaos) can classify a rejection with
// errors.Is instead of string-matching.
var (
	// ErrUnknownKind rejects a kind outside the catalogue.
	ErrUnknownKind = errors.New("fault: unknown kind")
	// ErrBadTime rejects a negative or overflowing event time.
	ErrBadTime = errors.New("fault: event time out of range")
	// ErrBadDuration rejects a negative, zero-on-windowed, or overflowing
	// duration.
	ErrBadDuration = errors.New("fault: event duration out of range")
	// ErrBadMagnitude rejects a magnitude outside the kind's legal range.
	ErrBadMagnitude = errors.New("fault: magnitude out of range")
	// ErrDurationOnInstant rejects a duration on an instant kind
	// (MachineCrash, ChurnBurst), which would silently be ignored.
	ErrDurationOnInstant = errors.New("fault: duration on instant kind")
)

// Kind enumerates injectable fault classes.
type Kind int

const (
	// MachineCrash restarts the machine at Event.At: the zswap pool and
	// all page-age state are lost, and every running job restarts in
	// place (its far-memory pages are gone, its controller history is
	// empty, and the S-second warmup applies again).
	MachineCrash Kind = iota
	// TelemetryDrop suppresses the node agent's telemetry exports for the
	// window, leaving a gap in the trace.
	TelemetryDrop
	// TelemetryCorrupt flips bits in at-rest trace entries within the
	// window; checksums catch it on load (see ApplyToTrace).
	TelemetryCorrupt
	// CompressorError makes each Store fail with probability
	// Event.Magnitude during the window (a transient compressor fault).
	CompressorError
	// CompressorSlowdown multiplies (de)compression CPU and latency by
	// Event.Magnitude during the window (e.g. thermal throttling or a
	// noisy neighbor stealing cycles).
	CompressorSlowdown
	// PressureSpike removes Event.Magnitude (a fraction) of the machine's
	// DRAM for the window (a system-slice balloon), forcing reclaim or
	// eviction.
	PressureSpike
	// ChurnBurst kills Event.Magnitude (a fraction, rounded down) of the
	// machine's running jobs at Event.At, lowest priority first, as
	// normal job churn (finished, not evicted).
	ChurnBurst
	// DaemonStall wedges kstaled/kreclaimd for the window: scans stop
	// until the node agent's watchdog notices and restarts them.
	DaemonStall
)

var kindNames = map[Kind]string{
	MachineCrash:       "machine-crash",
	TelemetryDrop:      "telemetry-drop",
	TelemetryCorrupt:   "telemetry-corrupt",
	CompressorError:    "compressor-error",
	CompressorSlowdown: "compressor-slowdown",
	PressureSpike:      "pressure-spike",
	ChurnBurst:         "churn-burst",
	DaemonStall:        "daemon-stall",
}

// String names the kind.
func (k Kind) String() string {
	if n, ok := kindNames[k]; ok {
		return n
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// MarshalJSON encodes the kind by name, keeping plan files readable.
func (k Kind) MarshalJSON() ([]byte, error) {
	n, ok := kindNames[k]
	if !ok {
		return nil, fmt.Errorf("fault: unknown kind %d", int(k))
	}
	return json.Marshal(n)
}

// UnmarshalJSON decodes a kind name.
func (k *Kind) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	for kind, name := range kindNames {
		if name == s {
			*k = kind
			return nil
		}
	}
	return fmt.Errorf("fault: unknown kind %q", s)
}

// Event is one timed fault. Instant kinds (MachineCrash, ChurnBurst) fire
// once at At; windowed kinds are active for [At, At+Duration).
type Event struct {
	Kind Kind `json:"kind"`
	// Machine targets one machine by name; empty targets every machine.
	Machine  string        `json:"machine,omitempty"`
	At       time.Duration `json:"at"`
	Duration time.Duration `json:"duration,omitempty"`
	// Magnitude is kind-specific: error probability (CompressorError),
	// CPU multiplier (CompressorSlowdown), DRAM fraction (PressureSpike),
	// or job fraction (ChurnBurst). Ignored by the other kinds.
	Magnitude float64 `json:"magnitude,omitempty"`
}

func (e Event) instant() bool {
	return e.Kind == MachineCrash || e.Kind == ChurnBurst
}

// Validate checks one event, wrapping the package's sentinel errors.
func (e Event) Validate() error {
	if _, ok := kindNames[e.Kind]; !ok {
		return fmt.Errorf("%w %d", ErrUnknownKind, int(e.Kind))
	}
	if e.At < 0 {
		return fmt.Errorf("%w: %s event at negative time %v", ErrBadTime, e.Kind, e.At)
	}
	if e.Duration < 0 {
		return fmt.Errorf("%w: %s event with negative duration %v", ErrBadDuration, e.Kind, e.Duration)
	}
	if e.instant() && e.Duration != 0 {
		return fmt.Errorf("%w: %s event with duration %v", ErrDurationOnInstant, e.Kind, e.Duration)
	}
	if !e.instant() {
		if e.Duration == 0 {
			return fmt.Errorf("%w: windowed %s event with zero duration", ErrBadDuration, e.Kind)
		}
		if end := e.At + e.Duration; end < e.At {
			return fmt.Errorf("%w: %s window end %v+%v overflows", ErrBadTime, e.Kind, e.At, e.Duration)
		}
	}
	switch e.Kind {
	case CompressorError:
		if e.Magnitude <= 0 || e.Magnitude > 1 {
			return fmt.Errorf("%w: compressor-error probability %v outside (0, 1]", ErrBadMagnitude, e.Magnitude)
		}
	case CompressorSlowdown:
		if e.Magnitude < 1 {
			return fmt.Errorf("%w: compressor-slowdown factor %v below 1", ErrBadMagnitude, e.Magnitude)
		}
	case PressureSpike:
		if e.Magnitude <= 0 || e.Magnitude >= 1 {
			return fmt.Errorf("%w: pressure-spike fraction %v outside (0, 1)", ErrBadMagnitude, e.Magnitude)
		}
	case ChurnBurst:
		if e.Magnitude <= 0 || e.Magnitude > 1 {
			return fmt.Errorf("%w: churn-burst fraction %v outside (0, 1]", ErrBadMagnitude, e.Magnitude)
		}
	}
	return nil
}

// Plan is a named, seeded fault schedule.
type Plan struct {
	Name   string  `json:"name"`
	Seed   int64   `json:"seed"`
	Events []Event `json:"events"`
}

// Validate checks every event.
func (p *Plan) Validate() error {
	if p == nil {
		return nil
	}
	for i, e := range p.Events {
		if err := e.Validate(); err != nil {
			return fmt.Errorf("fault: plan %q event %d: %w", p.Name, i, err)
		}
	}
	return nil
}

// Empty reports whether the plan injects nothing.
func (p *Plan) Empty() bool { return p == nil || len(p.Events) == 0 }

// Save writes the plan as indented JSON.
func (p *Plan) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(p)
}

// LoadPlan reads a plan written by Save and validates it.
func LoadPlan(r io.Reader) (*Plan, error) {
	var p Plan
	if err := json.NewDecoder(r).Decode(&p); err != nil {
		return nil, fmt.Errorf("fault: decoding plan: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// DefaultPlan is a plan that exercises every fault class over a run of
// the given duration: a crash mid-run, telemetry loss and corruption,
// compressor trouble, a pressure spike, a churn burst, and a daemon
// stall. Machine names follow the cluster scheduler's m%04d convention.
func DefaultPlan(seed int64, duration time.Duration) *Plan {
	at := func(frac float64) time.Duration {
		return time.Duration(frac * float64(duration))
	}
	win := duration / 12
	return &Plan{
		Name: "default",
		Seed: seed,
		Events: []Event{
			{Kind: DaemonStall, Machine: "m0000", At: at(0.10), Duration: win},
			// Fleet-wide: a stalled machine stores nothing, so scoping this
			// to m0000 right after its stall would inject into dead air.
			{Kind: CompressorError, At: at(0.20), Duration: win, Magnitude: 0.5},
			{Kind: TelemetryDrop, At: at(0.30), Duration: win},
			{Kind: MachineCrash, Machine: "m0001", At: at(0.40)},
			{Kind: CompressorSlowdown, At: at(0.50), Duration: win, Magnitude: 25},
			{Kind: TelemetryCorrupt, At: at(0.60), Duration: win},
			{Kind: ChurnBurst, At: at(0.70), Magnitude: 0.5},
			{Kind: PressureSpike, Machine: "m0002", At: at(0.80), Duration: win, Magnitude: 0.3},
		},
	}
}

// Injector answers a single machine's fault queries. A nil *Injector is
// valid and injects nothing, so fault-free construction costs one nil
// check per query site.
type Injector struct {
	events []Event
	fired  []bool
	rng    *rand.Rand
}

// NewInjector derives machine's injector from the plan. It returns nil
// when the plan has no events for the machine, which callers treat as
// "no faults" — an empty plan is indistinguishable from no plan.
func NewInjector(p *Plan, machine string) *Injector {
	if p.Empty() {
		return nil
	}
	var evs []Event
	for _, e := range p.Events {
		if e.Machine == "" || e.Machine == machine {
			evs = append(evs, e)
		}
	}
	if len(evs) == 0 {
		return nil
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].At < evs[j].At })
	return &Injector{
		events: evs,
		fired:  make([]bool, len(evs)),
		rng:    simtime.Rand(p.Seed, "fault/"+machine),
	}
}

// fire consumes the first unfired instant event of the kind due by now.
func (in *Injector) fire(kind Kind, now time.Duration) (Event, bool) {
	if in == nil {
		return Event{}, false
	}
	for i, e := range in.events {
		if e.Kind == kind && !in.fired[i] && e.At <= now {
			in.fired[i] = true
			return e, true
		}
	}
	return Event{}, false
}

// window returns the active windowed event of the kind at now, if any.
func (in *Injector) window(kind Kind, now time.Duration) (Event, bool) {
	if in == nil {
		return Event{}, false
	}
	for _, e := range in.events {
		if e.Kind == kind && e.At <= now && now < e.At+e.Duration {
			return e, true
		}
	}
	return Event{}, false
}

// CrashDue reports (once) that a machine crash is due.
func (in *Injector) CrashDue(now time.Duration) bool {
	_, ok := in.fire(MachineCrash, now)
	return ok
}

// ChurnBurstDue reports (once per event) a due churn burst and the
// fraction of running jobs to kill.
func (in *Injector) ChurnBurstDue(now time.Duration) (float64, bool) {
	e, ok := in.fire(ChurnBurst, now)
	return e.Magnitude, ok
}

// TelemetryDropped reports whether exports are suppressed at now.
func (in *Injector) TelemetryDropped(now time.Duration) bool {
	_, ok := in.window(TelemetryDrop, now)
	return ok
}

// StallActive reports whether kstaled/kreclaimd are wedged at now.
func (in *Injector) StallActive(now time.Duration) bool {
	_, ok := in.window(DaemonStall, now)
	return ok
}

// PressureExtraBytes returns how much of the machine's DRAM a pressure
// spike is withholding at now.
func (in *Injector) PressureExtraBytes(now time.Duration, dramBytes uint64) uint64 {
	e, ok := in.window(PressureSpike, now)
	if !ok {
		return 0
	}
	return uint64(e.Magnitude * float64(dramBytes))
}

// StoreErrorDue samples (deterministically) whether the next Store fails.
// Outside error windows it draws nothing, preserving RNG alignment with
// fault-free runs.
func (in *Injector) StoreErrorDue(now time.Duration) bool {
	e, ok := in.window(CompressorError, now)
	if !ok {
		return false
	}
	return in.rng.Float64() < e.Magnitude
}

// SlowdownFactor returns the active compressor CPU multiplier (1 when no
// slowdown is active).
func (in *Injector) SlowdownFactor(now time.Duration) float64 {
	e, ok := in.window(CompressorSlowdown, now)
	if !ok {
		return 1
	}
	return e.Magnitude
}
