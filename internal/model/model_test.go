package model

import (
	"math"
	"testing"
	"time"

	"sdfm/internal/core"
	"sdfm/internal/telemetry"
)

// buildTrace constructs a trace with njobs identical stationary jobs whose
// best threshold index is exactly bestIdx: promotions above the limit for
// every smaller index, below it from bestIdx on.
func buildTrace(njobs, intervals, bestIdx int) *telemetry.Trace {
	tr := telemetry.NewTrace()
	n := len(tr.Thresholds)
	const (
		totalPages      = 10000
		wss             = 3000
		intervalMinutes = 5.0
	)
	// SLO limit: 0.002 * 3000 = 6 promos/min = 30 per 5-min interval.
	for j := 0; j < njobs; j++ {
		key := telemetry.JobKey{Cluster: "c", Machine: "m", Job: jobName(j)}
		for it := 0; it < intervals; it++ {
			cold := make([]uint64, n)
			promo := make([]uint64, n)
			for i := 0; i < n; i++ {
				// Cold size decays with threshold.
				cold[i] = uint64(float64(totalPages) * 0.5 * math.Exp(-float64(tr.Thresholds[i])/80))
				if i < bestIdx {
					promo[i] = 100 // 20/min > 6/min limit
				} else {
					promo[i] = 10 // 2/min <= limit
				}
			}
			e := telemetry.Entry{
				Key:             key,
				TimestampSec:    int64((it + 1) * 300),
				IntervalMinutes: intervalMinutes,
				WSSPages:        wss,
				TotalPages:      totalPages,
				ColdTails:       cold,
				PromoTails:      promo,
			}
			if err := tr.Append(e); err != nil {
				panic(err)
			}
		}
	}
	return tr
}

func jobName(j int) string {
	return string(rune('a'+j%26)) + string(rune('0'+j/26%10))
}

func TestRunStationaryConvergesToBestThreshold(t *testing.T) {
	tr := buildTrace(4, 50, 7)
	res, err := Run(tr, Config{
		Params: core.Params{K: 98, S: 0},
		SLO:    core.DefaultSLO,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != 4 {
		t.Fatalf("jobs = %d", len(res.Jobs))
	}
	// Once history accumulates, the operating threshold is index 7; the
	// first interval uses the conservative default, so mean cold is
	// slightly below the index-7 plateau.
	wantCold := float64(tr.Entries[0].ColdTails[7])
	job := res.Jobs[0]
	if job.MeanColdPages > wantCold || job.MeanColdPages < wantCold*0.8 {
		t.Errorf("MeanColdPages = %.0f, want ~%.0f", job.MeanColdPages, wantCold)
	}
	// Realized rate at index 7 is 10/5/3000 ≈ 0.00067 <= 0.002: no
	// violations while operating there.
	if res.P98Rate > core.DefaultSLO.TargetRatePerMin {
		t.Errorf("P98Rate = %.5f exceeds SLO", res.P98Rate)
	}
	if res.Coverage <= 0 || res.Coverage > 1 {
		t.Errorf("Coverage = %.3f", res.Coverage)
	}
}

func TestRunWarmupSkipsIntervals(t *testing.T) {
	tr := buildTrace(1, 20, 3)
	// S = 30 min skips the first ~6 intervals (timestamps start at 300 s).
	res, err := Run(tr, Config{
		Params: core.Params{K: 98, S: 30 * time.Minute},
		SLO:    core.DefaultSLO,
	})
	if err != nil {
		t.Fatal(err)
	}
	job := res.Jobs[0]
	if job.Intervals != 20 {
		t.Errorf("Intervals = %d", job.Intervals)
	}
	if job.Enabled >= 20 || job.Enabled == 0 {
		t.Errorf("Enabled = %d, want within (0, 20)", job.Enabled)
	}
	// A huge S disables the job entirely.
	res2, err := Run(tr, Config{
		Params: core.Params{K: 98, S: 48 * time.Hour},
		SLO:    core.DefaultSLO,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Jobs[0].Enabled != 0 {
		t.Errorf("Enabled = %d with 48h warmup", res2.Jobs[0].Enabled)
	}
	if res2.ColdBytes != 0 {
		t.Errorf("ColdBytes = %v with zswap never enabled", res2.ColdBytes)
	}
}

func TestRunKMonotonicity(t *testing.T) {
	// Vary the best index over time so K matters: alternate phases where
	// the job is quiet (best index low) and busy (best index high).
	tr := telemetry.NewTrace()
	n := len(tr.Thresholds)
	key := telemetry.JobKey{Cluster: "c", Machine: "m", Job: "phased"}
	for it := 0; it < 200; it++ {
		bestIdx := 2
		if it%10 == 9 { // occasional busy interval
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
		tr.Append(telemetry.Entry{
			Key: key, TimestampSec: int64((it + 1) * 300), IntervalMinutes: 5,
			WSSPages: 3000, TotalPages: 10000, ColdTails: cold, PromoTails: promo,
		})
	}
	run := func(k float64) FleetResult {
		res, err := Run(tr, Config{Params: core.Params{K: k, S: 0}, SLO: core.DefaultSLO})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	aggressive := run(50) // 50th percentile: ignores the busy spikes
	conservative := run(99)
	if aggressive.ColdBytes <= conservative.ColdBytes {
		t.Errorf("K=50 cold %.0f should exceed K=99 cold %.0f",
			aggressive.ColdBytes, conservative.ColdBytes)
	}
	if aggressive.ViolationFrac < conservative.ViolationFrac {
		t.Errorf("K=50 violations %.3f should be >= K=99 %.3f",
			aggressive.ViolationFrac, conservative.ViolationFrac)
	}
}

func TestRunDeterministic(t *testing.T) {
	tr := buildTrace(6, 30, 5)
	useProcs(t, 4)
	cfg := Config{Params: core.Params{K: 90, S: 0}, SLO: core.DefaultSLO}
	a, err := Run(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.ColdBytes != b.ColdBytes || a.P98Rate != b.P98Rate || a.Coverage != b.Coverage {
		t.Errorf("parallel replay nondeterministic: %v vs %v", a, b)
	}
	for i := range a.Jobs {
		if a.Jobs[i].Key != b.Jobs[i].Key {
			t.Fatal("job order nondeterministic")
		}
	}
}

func TestRunValidation(t *testing.T) {
	tr := buildTrace(1, 5, 3)
	if _, err := Run(tr, Config{Params: core.Params{K: 200}, SLO: core.DefaultSLO}); err == nil {
		t.Error("invalid K accepted")
	}
	if _, err := Run(tr, Config{Params: core.DefaultParams, SLO: core.SLO{}}); err == nil {
		t.Error("invalid SLO accepted")
	}
}

func TestRunEmptyTrace(t *testing.T) {
	tr := telemetry.NewTrace()
	res, err := Run(tr, Config{Params: core.DefaultParams, SLO: core.DefaultSLO})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != 0 || res.ColdBytes != 0 || res.Coverage != 0 {
		t.Errorf("empty trace result: %v", res)
	}
}

// TestBestIndexZeroWSS pins the zero-working-set corner of the feedback
// signal in both derivations: the reference's bestIndex and the compiled
// best-threshold column.
func TestBestIndexZeroWSS(t *testing.T) {
	tr := telemetry.NewTrace()
	n := len(tr.Thresholds)
	e := telemetry.Entry{
		IntervalMinutes: 5, WSSPages: 0,
		ColdTails: make([]uint64, n), PromoTails: make([]uint64, n),
	}
	check := func(want int) {
		t.Helper()
		if got := bestIndex(e, core.DefaultSLO); got != want {
			t.Errorf("bestIndex = %d, want %d", got, want)
		}
		tr.Entries = []telemetry.Entry{e}
		if got := int(Compile(tr).bestFor(core.DefaultSLO)[0][0]); got != want {
			t.Errorf("compiled best column = %d, want %d", got, want)
		}
	}
	// Zero WSS and zero promotions: the lowest threshold is feasible.
	check(0)
	// Zero WSS with any promotions: nothing is feasible until promos stop.
	for i := 0; i < n; i++ {
		e.PromoTails[i] = uint64(n - i)
	}
	check(n - 1)
}

func TestFleetResultString(t *testing.T) {
	if (FleetResult{}).String() == "" {
		t.Error("empty String")
	}
}
