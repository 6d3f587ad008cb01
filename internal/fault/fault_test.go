package fault

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"sdfm/internal/telemetry"
)

func TestPlanJSONRoundTrip(t *testing.T) {
	p := DefaultPlan(7, 6*time.Hour)
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadPlan(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != p.Name || got.Seed != p.Seed || len(got.Events) != len(p.Events) {
		t.Fatalf("round trip lost plan shape: %+v vs %+v", got, p)
	}
	for i := range p.Events {
		if got.Events[i] != p.Events[i] {
			t.Errorf("event %d: got %+v, want %+v", i, got.Events[i], p.Events[i])
		}
	}
}

func TestPlanValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		ev   Event
	}{
		{"windowed without duration", Event{Kind: TelemetryDrop, At: time.Hour}},
		{"error prob over 1", Event{Kind: CompressorError, At: time.Hour, Duration: time.Minute, Magnitude: 1.5}},
		{"error prob zero", Event{Kind: CompressorError, At: time.Hour, Duration: time.Minute}},
		{"slowdown under 1", Event{Kind: CompressorSlowdown, At: time.Hour, Duration: time.Minute, Magnitude: 0.5}},
		{"pressure full dram", Event{Kind: PressureSpike, At: time.Hour, Duration: time.Minute, Magnitude: 1}},
		{"churn zero", Event{Kind: ChurnBurst, At: time.Hour}},
		{"negative at", Event{Kind: MachineCrash, At: -time.Second}},
	}
	for _, c := range cases {
		p := &Plan{Name: "x", Events: []Event{c.ev}}
		if err := p.Validate(); err == nil {
			t.Errorf("%s: accepted %+v", c.name, c.ev)
		}
	}
}

// TestValidateSentinels: every rejection class wraps its sentinel so
// callers (cmd/chaos, cmd/fleetsim, tests) can classify with errors.Is
// instead of string matching.
func TestValidateSentinels(t *testing.T) {
	w := time.Minute
	cases := []struct {
		name string
		ev   Event
		want error
	}{
		{"unknown kind", Event{Kind: Kind(99), At: time.Hour}, ErrUnknownKind},
		{"negative at", Event{Kind: MachineCrash, At: -time.Second}, ErrBadTime},
		{"overflowing window", Event{Kind: TelemetryDrop, At: 1 << 62, Duration: 1 << 62}, ErrBadTime},
		{"negative duration", Event{Kind: TelemetryDrop, At: time.Hour, Duration: -w}, ErrBadDuration},
		{"windowed without duration", Event{Kind: DaemonStall, At: time.Hour}, ErrBadDuration},
		{"duration on crash", Event{Kind: MachineCrash, At: time.Hour, Duration: w}, ErrDurationOnInstant},
		{"duration on churn", Event{Kind: ChurnBurst, At: time.Hour, Duration: w, Magnitude: 0.5}, ErrDurationOnInstant},
		{"error prob over 1", Event{Kind: CompressorError, At: time.Hour, Duration: w, Magnitude: 1.5}, ErrBadMagnitude},
		{"slowdown under 1", Event{Kind: CompressorSlowdown, At: time.Hour, Duration: w, Magnitude: 0.5}, ErrBadMagnitude},
		{"pressure full dram", Event{Kind: PressureSpike, At: time.Hour, Duration: w, Magnitude: 1}, ErrBadMagnitude},
		{"churn zero", Event{Kind: ChurnBurst, At: time.Hour}, ErrBadMagnitude},
	}
	for _, c := range cases {
		p := &Plan{Name: "x", Events: []Event{c.ev}}
		err := p.Validate()
		if err == nil {
			t.Errorf("%s: accepted %+v", c.name, c.ev)
			continue
		}
		if !errors.Is(err, c.want) {
			t.Errorf("%s: error %q does not wrap %q", c.name, err, c.want)
		}
		if !strings.Contains(err.Error(), `"x"`) || !strings.Contains(err.Error(), "event 0") {
			t.Errorf("%s: error %q lost plan/event context", c.name, err)
		}
	}
	// Valid plans — including every generated default plan — pass.
	if err := DefaultPlan(3, 6*time.Hour).Validate(); err != nil {
		t.Fatalf("default plan invalid: %v", err)
	}
}

func TestLoadPlanRejectsUnknownKind(t *testing.T) {
	_, err := LoadPlan(strings.NewReader(`{"Name":"x","Events":[{"Kind":"warp-core-breach","At":1}]}`))
	if err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestEmptyPlanHasNoInjector(t *testing.T) {
	if in := NewInjector(nil, "m0000"); in != nil {
		t.Errorf("nil plan gave injector %+v", in)
	}
	if in := NewInjector(&Plan{Name: "empty"}, "m0000"); in != nil {
		t.Errorf("empty plan gave injector %+v", in)
	}
	p := &Plan{Name: "other", Events: []Event{{Kind: MachineCrash, Machine: "m0001", At: time.Hour}}}
	if in := NewInjector(p, "m0000"); in != nil {
		t.Errorf("plan for another machine gave injector %+v", in)
	}
}

func TestNilInjectorIsInert(t *testing.T) {
	var in *Injector
	if in.CrashDue(time.Hour) || in.TelemetryDropped(time.Hour) || in.StallActive(time.Hour) || in.StoreErrorDue(time.Hour) {
		t.Error("nil injector injected something")
	}
	if _, ok := in.ChurnBurstDue(time.Hour); ok {
		t.Error("nil injector churned")
	}
	if in.PressureExtraBytes(time.Hour, 1<<30) != 0 {
		t.Error("nil injector withheld memory")
	}
	if f := in.SlowdownFactor(time.Hour); f != 1 {
		t.Errorf("nil injector slowdown %v", f)
	}
}

func TestInstantEventsFireOnce(t *testing.T) {
	p := &Plan{Name: "x", Seed: 3, Events: []Event{
		{Kind: MachineCrash, Machine: "m0000", At: 10 * time.Minute},
	}}
	in := NewInjector(p, "m0000")
	if in.CrashDue(5 * time.Minute) {
		t.Error("crash before its time")
	}
	if !in.CrashDue(10 * time.Minute) {
		t.Error("crash did not fire at its time")
	}
	if in.CrashDue(12 * time.Minute) {
		t.Error("crash fired twice")
	}
}

func TestWindowedEventsCoverWindowOnly(t *testing.T) {
	p := &Plan{Name: "x", Seed: 3, Events: []Event{
		{Kind: DaemonStall, At: 10 * time.Minute, Duration: 5 * time.Minute},
		{Kind: CompressorSlowdown, At: 20 * time.Minute, Duration: 5 * time.Minute, Magnitude: 10},
	}}
	in := NewInjector(p, "m0007")
	if in.StallActive(9 * time.Minute) {
		t.Error("stall before window")
	}
	if !in.StallActive(12 * time.Minute) {
		t.Error("no stall inside window")
	}
	if in.StallActive(15 * time.Minute) {
		t.Error("stall at window end (should be half-open)")
	}
	if f := in.SlowdownFactor(22 * time.Minute); f != 10 {
		t.Errorf("slowdown inside window = %v, want 10", f)
	}
	if f := in.SlowdownFactor(26 * time.Minute); f != 1 {
		t.Errorf("slowdown outside window = %v, want 1", f)
	}
}

func TestInjectorDeterministic(t *testing.T) {
	p := DefaultPlan(11, time.Hour)
	run := func() []bool {
		in := NewInjector(p, "m0000")
		var out []bool
		for ts := time.Duration(0); ts < time.Hour; ts += 30 * time.Second {
			out = append(out, in.StoreErrorDue(ts))
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs between identical injectors", i)
		}
	}
}

func buildTrace(t *testing.T, n int) *telemetry.Trace {
	t.Helper()
	tr := telemetry.NewTrace()
	nTh := len(tr.Thresholds)
	for i := 0; i < n; i++ {
		e := telemetry.Entry{
			Key:             telemetry.JobKey{Cluster: "c", Machine: "m0000", Job: "j"},
			TimestampSec:    int64((i + 1) * 300),
			IntervalMinutes: 5,
			WSSPages:        100,
			TotalPages:      1000,
			ColdTails:       make([]uint64, nTh),
			PromoTails:      make([]uint64, nTh),
		}
		for k := 0; k < nTh; k++ {
			e.ColdTails[k] = uint64(500 - k)
			e.PromoTails[k] = uint64(50 - k)
		}
		if err := tr.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	return tr
}

func TestApplyToTraceDropsAndCorrupts(t *testing.T) {
	// 12 entries at 5-minute marks; drop covers minutes 10-20, corruption
	// covers minutes 30-40.
	tr := buildTrace(t, 12)
	p := &Plan{Name: "x", Events: []Event{
		{Kind: TelemetryDrop, At: 10 * time.Minute, Duration: 10 * time.Minute},
		{Kind: TelemetryCorrupt, At: 30 * time.Minute, Duration: 10 * time.Minute},
	}}
	dmg := ApplyToTrace(p, tr)
	if dmg.Dropped != 2 {
		t.Errorf("dropped %d entries, want 2", dmg.Dropped)
	}
	if dmg.Corrupted != 2 {
		t.Errorf("corrupted %d entries, want 2", dmg.Corrupted)
	}
	if got := tr.Len(); got != 10 {
		t.Errorf("trace has %d entries after drops, want 10", got)
	}
	// Corruption must be checksum-detectable and scrubbed cleanly.
	bad := 0
	for i := range tr.Entries {
		if tr.Entries[i].VerifyChecksum() != nil {
			bad++
		}
	}
	if bad != dmg.Corrupted {
		t.Errorf("%d entries fail checksum, want %d", bad, dmg.Corrupted)
	}
	if scrubbed := tr.Scrub(); scrubbed != dmg.Corrupted {
		t.Errorf("scrub removed %d, want %d", scrubbed, dmg.Corrupted)
	}
}

func TestApplyToTraceDeterministic(t *testing.T) {
	p := &Plan{Name: "x", Events: []Event{
		{Kind: TelemetryCorrupt, At: 0, Duration: time.Hour},
	}}
	a, b := buildTrace(t, 6), buildTrace(t, 6)
	ApplyToTrace(p, a)
	ApplyToTrace(p, b)
	if !reflect.DeepEqual(a, b) {
		t.Error("same plan on same trace produced different traces")
	}
}

func TestEmptyPlanLeavesTraceUntouched(t *testing.T) {
	tr := buildTrace(t, 6)
	before := tr.Len()
	dmg := ApplyToTrace(&Plan{Name: "empty"}, tr)
	if dmg.Dropped != 0 || dmg.Corrupted != 0 || tr.Len() != before {
		t.Errorf("empty plan damaged trace: %+v", dmg)
	}
}
