package model

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"sdfm/internal/core"
	"sdfm/internal/mem"
	"sdfm/internal/telemetry"
)

func TestRunTimelineStagedRollout(t *testing.T) {
	tr := buildTrace(3, 60, 5) // 60 intervals of 5 min = 5 hours
	phases := []Phase{
		{Name: "off", Start: 0, Params: core.DefaultParams, Enabled: false},
		{Name: "manual", Start: time.Hour, Params: core.Params{K: 99, S: 0}, Enabled: true},
		{Name: "autotuned", Start: 3 * time.Hour, Params: core.Params{K: 70, S: 0}, Enabled: true},
	}
	pts, err := Compile(tr).Timeline(phases, Config{SLO: core.DefaultSLO})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 60 {
		t.Fatalf("points = %d, want 60", len(pts))
	}
	// Pre-rollout coverage is zero.
	for _, p := range pts {
		if p.Phase == "off" && p.Coverage != 0 {
			t.Errorf("coverage %.3f during off phase at %v", p.Coverage, p.Time)
		}
		if p.Time >= 90*time.Minute && p.Time < 3*time.Hour && p.Phase != "manual" {
			t.Errorf("phase at %v = %q, want manual", p.Time, p.Phase)
		}
	}
	// Coverage appears after enablement.
	var manualCov, autoCov float64
	var nManual, nAuto int
	for _, p := range pts {
		switch {
		case p.Phase == "manual" && p.Time >= 90*time.Minute:
			manualCov += p.Coverage
			nManual++
		case p.Phase == "autotuned" && p.Time >= 4*time.Hour:
			autoCov += p.Coverage
			nAuto++
		}
	}
	if nManual == 0 || nAuto == 0 {
		t.Fatal("phases did not produce samples")
	}
	manualCov /= float64(nManual)
	autoCov /= float64(nAuto)
	if manualCov <= 0 {
		t.Error("manual phase produced no coverage")
	}
	// The stationary trace has a constant best index, so both phases
	// converge to the same operating threshold; coverage must not drop
	// when the (more aggressive) autotuned parameters land.
	if autoCov < manualCov*0.95 {
		t.Errorf("autotuned coverage %.3f dropped below manual %.3f", autoCov, manualCov)
	}
	// Timeline sorted by time.
	for i := 1; i < len(pts); i++ {
		if pts[i].Time <= pts[i-1].Time {
			t.Fatal("timeline not sorted")
		}
	}
}

func TestRunTimelineKDifferenceShows(t *testing.T) {
	// On a phased workload (occasional busy intervals), lower K holds
	// lower thresholds and therefore more cold bytes.
	tr := telemetry.NewTrace()
	n := len(tr.Thresholds)
	key := telemetry.JobKey{Cluster: "c", Machine: "m", Job: "phased"}
	for it := 0; it < 150; it++ {
		bestIdx := 2
		if it%10 == 9 {
			bestIdx = 12
		}
		cold := make([]uint64, n)
		promo := make([]uint64, n)
		for i := 0; i < n; i++ {
			cold[i] = uint64(5000 - 200*i)
			if i < bestIdx {
				promo[i] = 500
			} else {
				promo[i] = 1
			}
		}
		if err := tr.Append(telemetry.Entry{
			Key: key, TimestampSec: int64((it + 1) * 300), IntervalMinutes: 5,
			WSSPages: 3000, TotalPages: 10000, ColdTails: cold, PromoTails: promo,
		}); err != nil {
			t.Fatal(err)
		}
	}
	mk := func(k float64) float64 {
		pts, err := Compile(tr).Timeline([]Phase{
			{Name: "run", Start: 0, Params: core.Params{K: k, S: 0}, Enabled: true},
		}, Config{SLO: core.DefaultSLO})
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		half := len(pts) / 2
		for _, p := range pts[half:] {
			sum += p.Coverage
		}
		return sum / float64(len(pts)-half)
	}
	if low, high := mk(50), mk(99); low <= high {
		t.Errorf("K=50 coverage %.3f should exceed K=99 coverage %.3f", low, high)
	}
}

func TestRunTimelineValidation(t *testing.T) {
	tr := buildTrace(1, 5, 2)
	if _, err := Compile(tr).Timeline(nil, Config{SLO: core.DefaultSLO}); err == nil {
		t.Error("no phases accepted")
	}
	if _, err := Compile(tr).Timeline([]Phase{
		{Name: "b", Start: time.Hour, Params: core.DefaultParams},
		{Name: "a", Start: 0, Params: core.DefaultParams},
	}, Config{SLO: core.DefaultSLO}); err == nil {
		t.Error("unsorted phases accepted")
	}
	if _, err := Compile(tr).Timeline([]Phase{
		{Name: "a", Start: 0, Params: core.Params{K: 500}},
	}, Config{SLO: core.DefaultSLO}); err == nil {
		t.Error("invalid phase params accepted")
	}
}

// timelineSchedules are phase schedules that exercise every lookup case:
// an off stage, a first phase starting after the trace does, two phases
// sharing a Start, and two sharing a Name. The last runs the default
// parameters from hour 6 on, which a pool that wraps (or fails to) shows
// under.
func timelineSchedules() [][]Phase {
	return [][]Phase{
		{
			{Name: "off", Start: 0, Params: core.DefaultParams, Enabled: false},
			{Name: "manual", Start: 2 * time.Hour, Params: core.Params{K: 99, S: time.Hour}, Enabled: true},
			{Name: "autotuned", Start: 5 * time.Hour, Params: core.Params{K: 60, S: 5 * time.Minute}, Enabled: true},
		},
		{
			{Name: "late", Start: 3 * time.Hour, Params: core.Params{K: 90, S: 0}, Enabled: true},
			{Name: "skipped", Start: 4 * time.Hour, Params: core.Params{K: 50, S: 0}, Enabled: false},
			{Name: "same-start", Start: 4 * time.Hour, Params: core.Params{K: 70, S: 20 * time.Minute}, Enabled: true},
		},
		{
			{Name: "run", Start: 0, Params: core.Params{K: 99.9, S: 2 * time.Hour}, Enabled: true},
			{Name: "run", Start: 4 * time.Hour, Params: core.Params{K: 50, S: 0}, Enabled: true},
		},
		{
			{Name: "manual", Start: 0, Params: core.Params{K: 99, S: time.Hour}, Enabled: true},
			{Name: "default", Start: 6 * time.Hour, Params: core.DefaultParams, Enabled: true},
		},
	}
}

// TestTimelineMatchesReference holds the compiled timeline to the
// core.Controller-based reference, point for point and bit for bit, on a
// shuffled, lossy trace and on one whose job series wrap the pool.
func TestTimelineMatchesReference(t *testing.T) {
	cfg := Config{SLO: core.DefaultSLO}
	for ti, tr := range []*telemetry.Trace{
		damagedTrace(t, rand.New(rand.NewSource(3))),
		// Job series longer than the pool's span evict from it.
		longTrace(t),
	} {
		ct := Compile(tr)
		for si, phases := range timelineSchedules() {
			want, err := referenceTimeline(tr, phases, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := ct.Timeline(phases, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("trace %d schedule %d: %d points, reference has %d", ti, si, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trace %d schedule %d point %d:\nreference %+v\ncompiled  %+v", ti, si, i, want[i], got[i])
				}
			}
		}
	}
}

// TestTimelineDeterministic: the series is a pure function of the trace
// and the schedule — not of the worker count, not of which worker
// finished first.
func TestTimelineDeterministic(t *testing.T) {
	ct := Compile(equivTrace(t))
	phases := timelineSchedules()[0]
	useProcs(t, 1)
	want, err := ct.Timeline(phases, Config{SLO: core.DefaultSLO})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4, 16} {
		useProcs(t, workers)
		for rep := 0; rep < 20; rep++ {
			got, err := ct.Timeline(phases, Config{SLO: core.DefaultSLO})
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("Workers=%d: %d points, want %d", workers, len(got), len(want))
			}
			for i := range want {
				if math.Float64bits(got[i].ColdBytes) != math.Float64bits(want[i].ColdBytes) ||
					math.Float64bits(got[i].ColdBytesAtMin) != math.Float64bits(want[i].ColdBytesAtMin) ||
					math.Float64bits(got[i].Coverage) != math.Float64bits(want[i].Coverage) {
					t.Fatalf("Workers=%d repeat %d point %d: %+v differs bitwise from %+v", workers, rep, i, got[i], want[i])
				}
			}
		}
	}
}

// TestTimelinePhasesSwitchByPosition: a phase is its place in the
// schedule, not its name — two stages that happen to share a label still
// hand over.
func TestTimelinePhasesSwitchByPosition(t *testing.T) {
	tr := buildTrace(2, 36, 5) // 3 hours
	pts, err := Compile(tr).Timeline([]Phase{
		{Name: "stage", Start: 0, Params: core.Params{K: 98, S: 0}, Enabled: false},
		{Name: "stage", Start: time.Hour, Params: core.Params{K: 98, S: 0}, Enabled: true},
	}, Config{SLO: core.DefaultSLO})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if on := p.Coverage > 0; on != (p.Time >= time.Hour) {
			t.Errorf("coverage %.3f at %v: far memory should be off before 1h and on from it", p.Coverage, p.Time)
		}
	}
}

// TestTimelineAgreesWithRun: one always-enabled phase is a plain replay,
// so the series must add up to the pages Run averages — the two views
// charge the same whole-page column.
func TestTimelineAgreesWithRun(t *testing.T) {
	ct := Compile(equivTrace(t))
	cfg := Config{Params: core.Params{K: 90, S: 30 * time.Minute}, SLO: core.DefaultSLO}
	fr, err := ct.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pts, err := ct.Timeline([]Phase{{Name: "run", Params: cfg.Params, Enabled: true}}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var fromRun, fromTimeline float64
	for _, j := range fr.Jobs {
		fromRun += j.MeanColdPages * float64(j.Intervals) * mem.PageSize
	}
	for _, p := range pts {
		fromTimeline += p.ColdBytes
	}
	if fromRun == 0 {
		t.Fatal("replay charged no cold pages; the comparison is vacuous")
	}
	if rel := math.Abs(fromTimeline-fromRun) / fromRun; rel > 1e-9 {
		t.Errorf("timeline sums to %.0f cold bytes, Run to %.0f (relative difference %.2g)", fromTimeline, fromRun, rel)
	}
}
