package workload

import (
	"math"
	"strings"
	"testing"
	"time"

	"sdfm/internal/mem"
)

func newWL(t *testing.T, a *Archetype, seed int64) *Workload {
	t.Helper()
	w, err := New(Config{Archetype: a, Name: "inst", Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestAllArchetypesValid(t *testing.T) {
	if len(Archetypes) < 5 {
		t.Fatalf("only %d archetypes", len(Archetypes))
	}
	for _, a := range Archetypes {
		if err := a.Validate(); err != nil {
			t.Errorf("%s: %v", a.Name, err)
		}
	}
}

func TestArchetypeValidation(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	// Each case breaks one field of an otherwise valid archetype; the
	// error must name it.
	for _, tc := range []struct {
		field string
		set   func(*Archetype)
	}{
		{"page range", func(a *Archetype) { a.PagesMin = 0 }},
		{"page range", func(a *Archetype) { a.PagesMin, a.PagesMax = 10, 5 }},
		{"no bands", func(a *Archetype) { a.Bands = nil }},
		{"band", func(a *Archetype) { a.Bands = []Band{{1, time.Minute, time.Second}} }},
		{"band", func(a *Archetype) { a.Bands = []Band{{1, 0, time.Second}} }},
		{"band", func(a *Archetype) { a.Bands = []Band{{-1, time.Second, time.Minute}} }},
		{"band", func(a *Archetype) { a.Bands = []Band{{nan, time.Second, time.Minute}} }},
		{"band", func(a *Archetype) { a.Bands = []Band{{inf, time.Second, time.Minute}} }},
		{"total band weight", func(a *Archetype) { a.Bands = []Band{{0, time.Second, time.Minute}} }},
		{"total band weight", func(a *Archetype) {
			a.Bands = []Band{{math.MaxFloat64, time.Second, time.Minute}, {math.MaxFloat64, time.Second, time.Minute}}
		}},
		{"DiurnalAmplitude", func(a *Archetype) { a.DiurnalAmplitude = 1.5 }},
		{"DiurnalAmplitude", func(a *Archetype) { a.DiurnalAmplitude = 1 }},
		{"DiurnalAmplitude", func(a *Archetype) { a.DiurnalAmplitude = -0.1 }},
		{"DiurnalAmplitude", func(a *Archetype) { a.DiurnalAmplitude = nan }},
		{"DiurnalPhase", func(a *Archetype) { a.DiurnalPhase = nan }},
		{"DiurnalPhase", func(a *Archetype) { a.DiurnalPhase = math.Inf(-1) }},
		{"WriteFraction", func(a *Archetype) { a.WriteFraction = 7 }},
		{"WriteFraction", func(a *Archetype) { a.WriteFraction = -0.5 }},
		{"WriteFraction", func(a *Archetype) { a.WriteFraction = nan }},
		{"MlockedFraction", func(a *Archetype) { a.MlockedFraction = -3 }},
		{"MlockedFraction", func(a *Archetype) { a.MlockedFraction = 1.01 }},
		{"MlockedFraction", func(a *Archetype) { a.MlockedFraction = nan }},
		{"CPUCores", func(a *Archetype) { a.CPUCores = -1 }},
		{"CPUCores", func(a *Archetype) { a.CPUCores = nan }},
		{"CPUCores", func(a *Archetype) { a.CPUCores = inf }},
		{"GrowthPerHour", func(a *Archetype) { a.GrowthPerHour = -0.1 }},
		{"GrowthPerHour", func(a *Archetype) { a.GrowthPerHour = nan }},
		{"GrowthPerHour", func(a *Archetype) { a.GrowthPerHour = inf }},
		{"MemLimitFactor", func(a *Archetype) { a.MemLimitFactor = -2 }},
		{"MemLimitFactor", func(a *Archetype) { a.MemLimitFactor = nan }},
		{"MemLimitFactor", func(a *Archetype) { a.MemLimitFactor = inf }},
		{"ScanEvery", func(a *Archetype) { a.ScanEvery = -time.Hour }},
		{"BackgroundPeriod", func(a *Archetype) { a.BackgroundPeriod = -time.Hour }},
	} {
		a := *WebFrontend
		tc.set(&a)
		_, err := New(Config{Archetype: &a, Name: "bad"})
		if err == nil {
			t.Errorf("%s: invalid archetype accepted: %+v", tc.field, a)
		} else if !strings.Contains(err.Error(), tc.field) {
			t.Errorf("error %q does not name %q", err, tc.field)
		}
	}
	// The bounds themselves are valid.
	ok := *WebFrontend
	ok.WriteFraction, ok.MlockedFraction, ok.DiurnalAmplitude = 1, 0, 0
	ok.CPUCores, ok.GrowthPerHour, ok.MemLimitFactor, ok.ScanEvery, ok.BackgroundPeriod = 0, 0, 0, 0, 0
	if err := ok.Validate(); err != nil {
		t.Errorf("boundary values rejected: %v", err)
	}
	if _, err := New(Config{Archetype: nil}); err == nil {
		t.Error("nil archetype accepted")
	}
}

// TestTickAdvancesOnNaNPeriod: whatever a page's mean gap is, each access
// moves it at least 0.5 s, so Tick returns. Validate keeps NaN out of New;
// this pins the clamp itself, which `gap < 0.5` would not be (NaN compares
// false, time.Duration(NaN) wraps negative, and the page stays due forever).
func TestTickAdvancesOnNaNPeriod(t *testing.T) {
	w := newWL(t, &Archetype{
		Name: "one-page", PagesMin: 1, PagesMax: 1,
		Bands: []Band{{1, time.Second, time.Minute}},
	}, 1)
	w.periods[0], w.next[0] = math.NaN(), 0
	n := 0
	func() {
		defer func() {
			if recover() != nil {
				t.Fatal("Tick kept emitting accesses of a page that never advances")
			}
		}()
		w.Tick(2*time.Minute, func(mem.PageID, bool) {
			if n++; n > 1000 {
				panic("runaway")
			}
		})
	}()
	// Due at 0 s, 0.5 s, …, 120 s.
	if n != 241 {
		t.Errorf("NaN-period page emitted %d accesses in 120 s, want 241 (one per 0.5 s)", n)
	}
}

func TestWorkloadDeterministic(t *testing.T) {
	a := newWL(t, WebFrontend, 42)
	b := newWL(t, WebFrontend, 42)
	if a.Pages() != b.Pages() {
		t.Fatal("page counts differ for same seed")
	}
	var accA, accB []mem.PageID
	a.Tick(10*time.Minute, func(id mem.PageID, _ bool) { accA = append(accA, id) })
	b.Tick(10*time.Minute, func(id mem.PageID, _ bool) { accB = append(accB, id) })
	if len(accA) != len(accB) {
		t.Fatalf("access counts differ: %d vs %d", len(accA), len(accB))
	}
	for i := range accA {
		if accA[i] != accB[i] {
			t.Fatal("access sequences diverge")
		}
	}
}

func TestWorkloadSeedsVary(t *testing.T) {
	a := newWL(t, WebFrontend, 1)
	b := newWL(t, WebFrontend, 2)
	if a.Pages() == b.Pages() && a.MeanPeriod(0) == b.MeanPeriod(0) {
		t.Error("different seeds produced identical instances")
	}
}

func TestPageCountInRange(t *testing.T) {
	for _, arch := range Archetypes {
		for seed := int64(0); seed < 5; seed++ {
			w := newWL(t, arch, seed)
			if w.Pages() < arch.PagesMin || w.Pages() > arch.PagesMax {
				t.Errorf("%s: pages %d outside [%d, %d]", arch.Name, w.Pages(), arch.PagesMin, arch.PagesMax)
			}
		}
	}
}

func TestHotPagesAccessedOften(t *testing.T) {
	// Over 30 minutes, pages with sub-minute periods must be touched many
	// times; pages with multi-day periods almost never.
	w := newWL(t, LogProcessor, 3)
	counts := make(map[mem.PageID]int)
	for now := time.Duration(0); now <= 30*time.Minute; now += 30 * time.Second {
		w.Tick(now, func(id mem.PageID, _ bool) { counts[id]++ })
	}
	hotTouches, hotPages := 0, 0
	coldTouches, coldPages := 0, 0
	for i := 0; i < w.Pages(); i++ {
		p := w.MeanPeriod(mem.PageID(i))
		switch {
		case p < 60:
			hotPages++
			hotTouches += counts[mem.PageID(i)]
		case p > 86400:
			coldPages++
			coldTouches += counts[mem.PageID(i)]
		}
	}
	if hotPages == 0 || coldPages == 0 {
		t.Fatalf("degenerate mixture: hot=%d cold=%d", hotPages, coldPages)
	}
	hotRate := float64(hotTouches) / float64(hotPages)
	coldRate := float64(coldTouches) / float64(coldPages)
	if hotRate < 10 {
		t.Errorf("hot pages touched %.1f times in 30 min, want >> 10", hotRate)
	}
	if coldRate > 0.2 {
		t.Errorf("cold pages touched %.2f times on average, want ~0", coldRate)
	}
}

func TestColdFractionVariesByArchetype(t *testing.T) {
	// The share of pages with period >> 120 s must differ sharply between
	// ML training (mostly hot) and log processing (mostly cold): the
	// heterogeneity of Figure 3.
	coldShare := func(a *Archetype) float64 {
		w := newWL(t, a, 9)
		cold := 0
		for i := 0; i < w.Pages(); i++ {
			if w.MeanPeriod(mem.PageID(i)) > 600 {
				cold++
			}
		}
		return float64(cold) / float64(w.Pages())
	}
	ml := coldShare(MLTraining)
	logs := coldShare(LogProcessor)
	if ml > 0.25 {
		t.Errorf("ml-training cold share = %.2f, want small", ml)
	}
	if logs < 0.6 {
		t.Errorf("log-processor cold share = %.2f, want large", logs)
	}
}

func TestDiurnalFactor(t *testing.T) {
	w := newWL(t, BigtableServer, 1)
	minF, maxF := 10.0, 0.0
	for h := 0; h < 24; h++ {
		f := w.DiurnalFactor(time.Duration(h) * time.Hour)
		if f < minF {
			minF = f
		}
		if f > maxF {
			maxF = f
		}
	}
	amp := BigtableServer.DiurnalAmplitude
	if maxF < 1+amp*0.9 || minF > 1-amp*0.9 {
		t.Errorf("diurnal range [%.2f, %.2f], want ~[%.2f, %.2f]", minF, maxF, 1-amp, 1+amp)
	}
	// Zero amplitude means constant load.
	w2 := newWL(t, &Archetype{
		Name: "flat", PagesMin: 10, PagesMax: 20,
		Bands: []Band{{1, time.Second, time.Minute}},
		Mix:   MLTraining.Mix,
	}, 1)
	if w2.DiurnalFactor(3*time.Hour) != 1 {
		t.Error("flat workload has diurnal variation")
	}
}

func TestScanTouchesEveryPage(t *testing.T) {
	a := *BatchAnalytics
	a.PagesMin, a.PagesMax = 500, 600
	a.ScanEvery = time.Hour
	w := newWL(t, &a, 5)
	touched := make(map[mem.PageID]bool)
	// Just before the scan boundary not all pages are touched...
	w.Tick(59*time.Minute, func(id mem.PageID, _ bool) { touched[id] = true })
	if len(touched) == w.Pages() {
		t.Skip("all pages touched before scan; mixture too hot for this test")
	}
	// ...but the scan at 1 h covers everything.
	w.Tick(61*time.Minute, func(id mem.PageID, _ bool) { touched[id] = true })
	if len(touched) != w.Pages() {
		t.Errorf("after scan: %d/%d pages touched", len(touched), w.Pages())
	}
}

func TestWritesFractionRoughlyRespected(t *testing.T) {
	w := newWL(t, MLTraining, 7) // WriteFraction 0.5
	reads, writes := 0, 0
	for now := time.Duration(0); now <= 20*time.Minute; now += time.Minute {
		w.Tick(now, func(_ mem.PageID, wr bool) {
			if wr {
				writes++
			} else {
				reads++
			}
		})
	}
	frac := float64(writes) / float64(reads+writes)
	if frac < 0.4 || frac > 0.6 {
		t.Errorf("write fraction = %.2f, want ~0.5", frac)
	}
}

func TestCPUUsage(t *testing.T) {
	w := newWL(t, WebFrontend, 1)
	dt := 2 * time.Minute
	got := w.CPUUsage(6*time.Hour, dt)
	f := w.DiurnalFactor(6 * time.Hour)
	want := time.Duration(float64(dt) * WebFrontend.CPUCores * f)
	if got != want {
		t.Errorf("CPUUsage = %v, want %v", got, want)
	}
	if got <= 0 {
		t.Error("non-positive CPU usage")
	}
}

func TestEffectivePeriod(t *testing.T) {
	a := &Archetype{BackgroundPeriod: time.Hour}
	// A page nominally touched once a week is effectively touched about
	// hourly once the background process is blended in.
	got := a.EffectivePeriod((7 * 24 * time.Hour).Seconds())
	if got > time.Hour.Seconds() || got < 0.9*time.Hour.Seconds() {
		t.Errorf("EffectivePeriod = %v s, want just under 3600", got)
	}
	// A hot page is barely affected.
	hot := a.EffectivePeriod(10)
	if hot < 9.9 || hot > 10 {
		t.Errorf("hot EffectivePeriod = %v, want ~10", hot)
	}
	// No background process: identity.
	b := &Archetype{}
	if b.EffectivePeriod(123) != 123 {
		t.Error("EffectivePeriod without background must be identity")
	}
}

func TestMemcgConfig(t *testing.T) {
	w := newWL(t, KVCache, 2)
	cfg := w.MemcgConfig(77)
	if cfg.Pages != w.Pages() || cfg.Name != w.Name() || cfg.SeedBase != 77 {
		t.Errorf("MemcgConfig = %+v", cfg)
	}
	m := mem.NewMemcg(cfg)
	if m.NumPages() != w.Pages() {
		t.Error("memcg size mismatch")
	}
}

func TestTickMonotoneNoDoubleFire(t *testing.T) {
	// Calling Tick twice with the same timestamp must not replay events.
	w := newWL(t, WebFrontend, 4)
	n1 := 0
	w.Tick(5*time.Minute, func(mem.PageID, bool) { n1++ })
	n2 := 0
	w.Tick(5*time.Minute, func(mem.PageID, bool) { n2++ })
	if n2 != 0 {
		t.Errorf("second Tick at same time fired %d events", n2)
	}
}
