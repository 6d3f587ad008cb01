// Package workload synthesizes the memory-access behaviour of WSC jobs.
//
// Each page of a job draws a characteristic reaccess period from its
// archetype's band mixture (a heavy-tailed distribution: some pages are
// touched every few seconds, some every few hours, some essentially
// never). Accesses are generated as a renewal process per page, modulated
// by a diurnal load curve. This reproduces the phenomenology the paper's
// evaluation rests on: 1–61% cold memory across job types (Figure 3),
// diurnal swings in cold memory (Figure 10), and promotions whose rate
// falls off with the cold-age threshold (Figure 1).
//
// The event queue is a column — one next-access time per page, swept in
// page order once per Tick — because nothing downstream can see the order
// of a tick's accesses across pages: the callback carries no timestamp
// and kstaled reads one accessed bit per page per scan. Beside it sits
// one bound per block of dueBlock pages, the soonest next access in the
// block, so a tick costs a block of idle pages one comparison and emits
// exactly what a sweep of every page would.
package workload

import (
	"fmt"
	"math"
	"slices"
	"time"

	"sdfm/internal/mem"
	"sdfm/internal/pagedata"
	"sdfm/internal/simtime"
)

// Band is one component of a reaccess-period mixture: Weight of the pages
// draw a period log-uniformly from [MinPeriod, MaxPeriod].
type Band struct {
	Weight    float64
	MinPeriod time.Duration
	MaxPeriod time.Duration
}

// Archetype describes a class of production workload.
type Archetype struct {
	Name string
	// PagesMin/PagesMax bound the per-instance page population.
	PagesMin, PagesMax int
	// Bands is the reaccess-period mixture.
	Bands []Band
	// Mix is the data-class mixture controlling compressibility.
	Mix pagedata.Mix
	// WriteFraction of accesses dirty the page.
	WriteFraction float64
	// DiurnalAmplitude in [0, 1) modulates access rates over a 24 h cycle.
	DiurnalAmplitude float64
	// DiurnalPhase shifts the cycle.
	DiurnalPhase float64
	// ScanEvery, when nonzero, touches every page read-only at this
	// interval (batch jobs that sweep their datasets).
	ScanEvery time.Duration
	// BackgroundPeriod, when nonzero, adds a background touch process:
	// every page is additionally accessed at this mean period regardless
	// of its band (GC walks, checkpointing, periodic audits). It blends
	// harmonically into each page's effective reaccess period.
	BackgroundPeriod time.Duration
	// CPUCores is the job's average CPU consumption in cores.
	CPUCores float64
	// MlockedFraction of pages is pinned.
	MlockedFraction float64
	// GrowthPerHour is the job's allocation rate as a fraction of its
	// initial page population per hour (log buffers, growing caches).
	// Zero means a fixed footprint.
	GrowthPerHour float64
	// MemLimitFactor sets the job's memcg limit as a multiple of its
	// initial footprint; 0 means unlimited. Growing jobs that reach the
	// limit have zswap turned off and are then killed (fail fast, §5.1).
	MemLimitFactor float64
	// Priority for eviction ordering (higher = more important).
	Priority int
}

// Validate checks the archetype. Range checks are written "not inside",
// not "outside", so that NaN — which compares false to everything and
// would make every gap NaN, a page Tick never gets past — is rejected.
func (a *Archetype) Validate() error {
	if a.PagesMin <= 0 || a.PagesMax < a.PagesMin {
		return fmt.Errorf("workload: %s has invalid page range [%d, %d]", a.Name, a.PagesMin, a.PagesMax)
	}
	if len(a.Bands) == 0 {
		return fmt.Errorf("workload: %s has no bands", a.Name)
	}
	total := 0.0
	for _, b := range a.Bands {
		if !within(b.Weight, math.MaxFloat64) || b.MinPeriod <= 0 || b.MaxPeriod < b.MinPeriod {
			return fmt.Errorf("workload: %s has invalid band %+v", a.Name, b)
		}
		total += b.Weight
	}
	if !(total > 0 && total <= math.MaxFloat64) {
		return fmt.Errorf("workload: %s has total band weight %v", a.Name, total)
	}
	if !(a.DiurnalAmplitude >= 0 && a.DiurnalAmplitude < 1) {
		return fmt.Errorf("workload: %s has DiurnalAmplitude %v outside [0, 1)", a.Name, a.DiurnalAmplitude)
	}
	if math.IsNaN(a.DiurnalPhase) || math.IsInf(a.DiurnalPhase, 0) {
		return fmt.Errorf("workload: %s has non-finite DiurnalPhase %v", a.Name, a.DiurnalPhase)
	}
	for _, f := range []struct {
		name    string
		v, most float64
	}{
		{"WriteFraction", a.WriteFraction, 1},
		{"MlockedFraction", a.MlockedFraction, 1},
		{"CPUCores", a.CPUCores, math.MaxFloat64},
		{"GrowthPerHour", a.GrowthPerHour, math.MaxFloat64},
		{"MemLimitFactor", a.MemLimitFactor, math.MaxFloat64},
	} {
		if !within(f.v, f.most) {
			return fmt.Errorf("workload: %s has %s %v outside [0, %g]", a.Name, f.name, f.v, f.most)
		}
	}
	if a.ScanEvery < 0 || a.BackgroundPeriod < 0 {
		return fmt.Errorf("workload: %s has negative ScanEvery %v or BackgroundPeriod %v", a.Name, a.ScanEvery, a.BackgroundPeriod)
	}
	return nil
}

// within reports 0 <= v <= most; false for NaN.
func within(v, most float64) bool { return v >= 0 && v <= most }

// EffectivePeriod blends a page's band period with the archetype's
// background touch process: rates add, so periods combine harmonically.
func (a *Archetype) EffectivePeriod(periodSec float64) float64 {
	if a.BackgroundPeriod <= 0 {
		return periodSec
	}
	bg := a.BackgroundPeriod.Seconds()
	return 1 / (1/periodSec + 1/bg)
}

// The standard archetypes. Band mixtures are chosen so the fleet-wide
// blend lands near the paper's characterization: ~32% of memory cold at
// T = 120 s with ~15%/min of cold memory accessed, and per-job cold
// fractions spanning <9% (bottom decile) to >43% (top decile).
var (
	// WebFrontend: latency-sensitive serving; mostly hot heap, small cold
	// tail, strong diurnal swing.
	WebFrontend = &Archetype{
		Name: "web-frontend", PagesMin: 2000, PagesMax: 6000,
		Bands: []Band{
			{Weight: 0.85, MinPeriod: 5 * time.Second, MaxPeriod: 90 * time.Second},
			{Weight: 0.08, MinPeriod: 5 * time.Minute, MaxPeriod: 1 * time.Hour},
			{Weight: 0.07, MinPeriod: 6 * time.Hour, MaxPeriod: 72 * time.Hour},
		},
		Mix:              pagedata.NewMix(0.05, 0.35, 0.20, 0.15, 0.25),
		WriteFraction:    0.25,
		DiurnalAmplitude: 0.5,
		BackgroundPeriod: 8 * time.Hour,
		CPUCores:         0.05,
		Priority:         200,
	}
	// BigtableServer: in-memory block cache over petabytes; Zipf-like
	// reuse with a big lukewarm middle and pronounced diurnal load.
	BigtableServer = &Archetype{
		Name: "bigtable", PagesMin: 8000, PagesMax: 24000,
		Bands: []Band{
			{Weight: 0.65, MinPeriod: 10 * time.Second, MaxPeriod: 2 * time.Minute},
			{Weight: 0.12, MinPeriod: 4 * time.Minute, MaxPeriod: 40 * time.Minute},
			{Weight: 0.13, MinPeriod: 1 * time.Hour, MaxPeriod: 12 * time.Hour},
			{Weight: 0.10, MinPeriod: 24 * time.Hour, MaxPeriod: 240 * time.Hour},
		},
		Mix:              pagedata.NewMix(0.03, 0.20, 0.22, 0.25, 0.30),
		WriteFraction:    0.15,
		DiurnalAmplitude: 0.6,
		BackgroundPeriod: 10 * time.Hour,
		CPUCores:         0.10,
		Priority:         300,
	}
	// BatchAnalytics: periodic full-dataset sweeps over a mostly idle
	// corpus.
	BatchAnalytics = &Archetype{
		Name: "batch-analytics", PagesMin: 6000, PagesMax: 20000,
		Bands: []Band{
			{Weight: 0.45, MinPeriod: 5 * time.Second, MaxPeriod: 90 * time.Second},
			{Weight: 0.25, MinPeriod: 10 * time.Minute, MaxPeriod: 1 * time.Hour},
			{Weight: 0.30, MinPeriod: 8 * time.Hour, MaxPeriod: 120 * time.Hour},
		},
		Mix:              pagedata.NewMix(0.04, 0.26, 0.25, 0.20, 0.25),
		WriteFraction:    0.10,
		DiurnalAmplitude: 0.2,
		ScanEvery:        12 * time.Hour,
		BackgroundPeriod: 24 * time.Hour,
		CPUCores:         0.08,
		Priority:         100,
	}
	// MLTraining: dense parameter/activation memory touched every step;
	// little cold memory, mostly incompressible floats.
	MLTraining = &Archetype{
		Name: "ml-training", PagesMin: 8000, PagesMax: 16000,
		Bands: []Band{
			{Weight: 0.92, MinPeriod: 2 * time.Second, MaxPeriod: 60 * time.Second},
			{Weight: 0.05, MinPeriod: 10 * time.Minute, MaxPeriod: 2 * time.Hour},
			{Weight: 0.03, MinPeriod: 12 * time.Hour, MaxPeriod: 72 * time.Hour},
		},
		Mix:              pagedata.NewMix(0.02, 0.08, 0.12, 0.43, 0.35),
		WriteFraction:    0.50,
		DiurnalAmplitude: 0.1,
		BackgroundPeriod: 16 * time.Hour,
		CPUCores:         0.30,
		Priority:         100,
	}
	// KVCache: memcache-style key-value store with a long Zipf tail of
	// rarely touched entries.
	KVCache = &Archetype{
		Name: "kv-cache", PagesMin: 4000, PagesMax: 16000,
		Bands: []Band{
			{Weight: 0.50, MinPeriod: 5 * time.Second, MaxPeriod: 60 * time.Second},
			{Weight: 0.20, MinPeriod: 3 * time.Minute, MaxPeriod: 30 * time.Minute},
			{Weight: 0.15, MinPeriod: 1 * time.Hour, MaxPeriod: 8 * time.Hour},
			{Weight: 0.15, MinPeriod: 12 * time.Hour, MaxPeriod: 240 * time.Hour},
		},
		Mix:              pagedata.NewMix(0.05, 0.22, 0.28, 0.15, 0.30),
		WriteFraction:    0.30,
		DiurnalAmplitude: 0.45,
		BackgroundPeriod: 12 * time.Hour,
		CPUCores:         0.05,
		Priority:         200,
	}
	// LogProcessor: append-mostly buffers; the bulk of memory goes cold
	// and stays cold.
	LogProcessor = &Archetype{
		Name: "log-processor", PagesMin: 4000, PagesMax: 12000,
		Bands: []Band{
			{Weight: 0.25, MinPeriod: 5 * time.Second, MaxPeriod: 60 * time.Second},
			{Weight: 0.15, MinPeriod: 5 * time.Minute, MaxPeriod: 1 * time.Hour},
			{Weight: 0.60, MinPeriod: 24 * time.Hour, MaxPeriod: 500 * time.Hour},
		},
		Mix:              pagedata.NewMix(0.05, 0.40, 0.25, 0.12, 0.18),
		WriteFraction:    0.20,
		DiurnalAmplitude: 0.3,
		BackgroundPeriod: 48 * time.Hour,
		CPUCores:         0.02,
		Priority:         50,
	}
)

// Archetypes is the standard set, in a stable order.
var Archetypes = []*Archetype{
	WebFrontend, BigtableServer, BatchAnalytics, MLTraining, KVCache, LogProcessor,
}

// dueBlock is the number of pages one entry of Workload.due covers.
// Measured in place (bench sim_coldstore, four alternating runs each): 8,
// 16, 32 and 64 pages give medians of 4,727, 4,799, 4,623 and 4,373
// steps/s. A job's few hot pages are scattered over its address space, so
// a larger block is due more often and drags more idle neighbours into
// each sweep; below 16 the bound column costs what it saves.
const dueBlock = 16

// Workload is one job instance's access generator.
type Workload struct {
	arch    *Archetype
	name    string
	pages   int
	initial int
	periods []float64       // per-page mean reaccess period, seconds
	next    []time.Duration // per-page time of the next access
	// due[b] is a lower bound on next over block b (pages b·dueBlock …):
	// Tick skips a block whose bound is after now and leaves the exact
	// minimum behind in every block it sweeps.
	due       []time.Duration
	rng       *simtime.Stream
	bandTotal float64 // Σ band weights
	nextScan  time.Duration
	grown     float64 // fractional pages accumulated toward growth
	lastGrow  time.Duration
}

// Config instantiates a workload.
type Config struct {
	Archetype *Archetype
	Name      string
	Seed      int64
	// Start is the simulated time the job begins; initial accesses are
	// scheduled from here.
	Start time.Duration
}

// New creates a workload instance. Page count and per-page periods are
// drawn deterministically from the seed.
func New(cfg Config) (*Workload, error) {
	if cfg.Archetype == nil {
		return nil, fmt.Errorf("workload: nil archetype")
	}
	if err := cfg.Archetype.Validate(); err != nil {
		return nil, err
	}
	rng := simtime.NewStream(cfg.Seed, "workload/"+cfg.Name)
	a := cfg.Archetype
	pages := a.PagesMin
	if a.PagesMax > a.PagesMin {
		pages += rng.Intn(a.PagesMax - a.PagesMin)
	}
	w := &Workload{
		arch:     a,
		name:     cfg.Name,
		pages:    pages,
		initial:  pages,
		periods:  make([]float64, pages),
		next:     make([]time.Duration, pages),
		rng:      rng,
		lastGrow: cfg.Start,
	}
	for _, b := range a.Bands {
		w.bandTotal += b.Weight
	}
	for i := 0; i < pages; i++ {
		w.periods[i] = w.drawPeriod()
		// First access at a uniformly random point within one period
		// (stationary renewal process start).
		w.next[i] = cfg.Start + time.Duration(rng.Float64()*w.periods[i]*float64(time.Second))
	}
	w.due = make([]time.Duration, (pages+dueBlock-1)/dueBlock)
	for b := range w.due {
		w.due[b] = slices.Min(w.next[b*dueBlock : min((b+1)*dueBlock, pages)])
	}
	if a.ScanEvery > 0 {
		w.nextScan = cfg.Start + a.ScanEvery
	}
	return w, nil
}

// Name returns the instance name.
func (w *Workload) Name() string { return w.name }

// Archetype returns the workload's archetype.
func (w *Workload) Archetype() *Archetype { return w.arch }

// Pages returns the page population.
func (w *Workload) Pages() int { return w.pages }

// MeanPeriod returns page i's mean reaccess period in seconds.
func (w *Workload) MeanPeriod(i mem.PageID) float64 { return w.periods[i] }

// DiurnalFactor returns the load multiplier at time t: 1 ± amplitude over
// a 24-hour cycle.
func (w *Workload) DiurnalFactor(t time.Duration) float64 {
	if w.arch.DiurnalAmplitude == 0 {
		return 1
	}
	phase := 2*math.Pi*float64(t)/float64(24*time.Hour) + w.arch.DiurnalPhase
	return 1 + w.arch.DiurnalAmplitude*math.Sin(phase)
}

// Tick emits every access due at or before now, invoking access once per
// access. Each page is a renewal process: an access at time at is followed
// by the next at at + max(0.5 s, Exp(1)·period/diurnal), the diurnal
// factor evaluated once, at the tick's now (busier hours reaccess sooner).
// A ScanEvery sweep that has come due then touches every page read-only.
//
// It is one sweep of the next column, block by block: a block whose bound
// is after now costs a comparison, and any other is swept page by page and
// left with its exact minimum as the new bound. Skipping skips no access
// and no draw. The order is the contract that makes runs reproducible:
// pages in ascending ID, a page's accesses in time order, per access one
// Float64 (the write draw) then one ExpFloat64 (the gap draw) from the
// job's simtime.Stream, which yields math/rand's values and inlines both
// draws here — so for a seed the output is a pure function of the
// sequence of now values. The draws are i.i.d., so this order has the
// same law as global time order (reference_test.go holds the sweep to the
// time-ordered generator).
func (w *Workload) Tick(now time.Duration, access func(id mem.PageID, write bool)) {
	diurnal, writeFraction := w.DiurnalFactor(now), w.arch.WriteFraction
	rng, periods, next := w.rng, w.periods, w.next
	for b, bound := range w.due {
		if bound > now {
			continue
		}
		soonest := time.Duration(math.MaxInt64)
		for i, end := b*dueBlock, min((b+1)*dueBlock, len(next)); i < end; i++ {
			at := next[i]
			if at <= now {
				mean := periods[i] / diurnal
				for at <= now {
					access(mem.PageID(i), rng.Float64() < writeFraction)
					gap := rng.ExpFloat64() * mean
					// Not "gap < 0.5": a NaN gap must also advance the page.
					if !(gap >= 0.5) {
						gap = 0.5
					}
					at += time.Duration(gap * float64(time.Second))
				}
				next[i] = at
			}
			soonest = min(soonest, at)
		}
		w.due[b] = soonest
	}
	if w.arch.ScanEvery > 0 && now >= w.nextScan {
		for i := 0; i < w.pages; i++ {
			access(mem.PageID(i), false)
		}
		for now >= w.nextScan {
			w.nextScan += w.arch.ScanEvery
		}
	}
}

// GrowthDue returns how many new pages the job has allocated since the
// last growth check, at the archetype's growth rate.
func (w *Workload) GrowthDue(now time.Duration) int {
	if w.arch.GrowthPerHour == 0 || now <= w.lastGrow {
		return 0
	}
	dt := now - w.lastGrow
	w.lastGrow = now
	w.grown += float64(w.initial) * w.arch.GrowthPerHour * dt.Hours()
	n := int(w.grown)
	w.grown -= float64(n)
	return n
}

// AddPages extends the workload by n pages (after the matching memcg
// Grow): each new page draws a reaccess period from the band mixture and
// schedules its first access.
func (w *Workload) AddPages(n int, now time.Duration) {
	for i := 0; i < n; i++ {
		period := w.drawPeriod()
		w.periods = append(w.periods, period)
		at := now + time.Duration(w.rng.ExpFloat64()*period*float64(time.Second))
		w.next = append(w.next, at)
		if b := w.pages / dueBlock; b == len(w.due) {
			w.due = append(w.due, at)
		} else {
			w.due[b] = min(w.due[b], at)
		}
		w.pages++
	}
}

// drawPeriod picks a band by weight, then a log-uniform period within it,
// blended with the background process: two draws, in that order.
func (w *Workload) drawPeriod() float64 {
	a := w.arch
	u := w.rng.Float64() * w.bandTotal
	band := a.Bands[len(a.Bands)-1]
	for _, b := range a.Bands {
		if u < b.Weight {
			band = b
			break
		}
		u -= b.Weight
	}
	lo := math.Log(band.MinPeriod.Seconds())
	hi := math.Log(band.MaxPeriod.Seconds())
	return a.EffectivePeriod(math.Exp(lo + w.rng.Float64()*(hi-lo)))
}

// CPUUsage returns the CPU time the job consumes over dt, scaled by the
// diurnal factor (the denominator for Figure 8's overhead normalization).
func (w *Workload) CPUUsage(now, dt time.Duration) time.Duration {
	return time.Duration(float64(dt) * w.arch.CPUCores * w.DiurnalFactor(now))
}

// MemcgConfig builds the matching memcg configuration for this instance.
func (w *Workload) MemcgConfig(seedBase uint64) mem.Config {
	return mem.Config{
		Name:            w.name,
		Pages:           w.pages,
		Mix:             w.arch.Mix,
		SeedBase:        seedBase,
		MlockedFraction: w.arch.MlockedFraction,
	}
}
