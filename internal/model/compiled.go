package model

import (
	"sort"
	"sync"
	"time"

	"sdfm/internal/core"
	"sdfm/internal/par"
	"sdfm/internal/telemetry"
)

// CompiledTrace is a replay-optimized representation of a telemetry trace
// (§5.3). Compiling performs, once, all the work that does not depend on
// the (K, S) parameters under evaluation — grouping entries into per-job
// series, sorting them by timestamp, detecting reporting gaps, and laying
// each field out in a dense column — so that a tuning session evaluating
// dozens of candidate configurations pays the trace preparation cost once
// instead of per evaluation.
//
// The per-interval best-threshold index (the §4.3 feedback signal) depends
// on the SLO but not on the parameters; it is derived lazily on the first
// replay for a given SLO and cached, so the common compile-once /
// replay-many pattern of tuner.Autotune computes it exactly once. A trace
// finished from a window (NewWindow) arrives with it already derived for
// the window's SLO.
//
// A CompiledTrace is immutable after Compile and safe for concurrent
// replays.
type CompiledTrace struct {
	nThresh int
	jobs    []compiledJob

	// Lazily derived, SLO-dependent best-threshold columns (one []uint8
	// per job, parallel to jobs). Guarded by mu; replaced wholesale when a
	// replay asks for a different SLO than the cached one.
	mu       sync.Mutex
	bestSLO  core.SLO
	bestCols [][]uint8
	haveBest bool
}

// compiledJob is one job's interval series in columnar form, every field
// of its entries kept as reported, so each entry can be rebuilt (entry).
// Scalar columns have length n; the flattened tail columns have length
// n*nThresh with interval i occupying [i*nThresh, (i+1)*nThresh).
type compiledJob struct {
	key telemetry.JobKey
	n   int

	tsSec       []int64   // interval-end timestamps, sorted ascending once compiled
	intervalMin []float64 // aggregation interval lengths
	wss         []uint64  // WSSPages
	total       []uint64  // TotalPages
	frac        []float64 // CompressibleFrac as reported (coldAt reads 0 as 1)
	sum         []uint64  // Checksum
	coldTails   []uint64  // flattened ColdTails; [i*nThresh] is the coverage denominator
	promoTails  []uint64  // flattened PromoTails

	// gaps is the total inferred missing intervals (timestamp jumps larger
	// than 1.5x the previous reporting interval) — params-independent.
	gaps int
}

// coldAt is the compressible cold page count the replay charges for
// interval i at threshold t: uint64(float64(ColdTails[t]) *
// compressibleFrac), truncated exactly as the reference replay does so
// replays stay bit-identical to it.
func (j *compiledJob) coldAt(i, t, nT int) float64 {
	frac := j.frac[i]
	if frac == 0 {
		frac = 1 // zero means "not reported": every cold page compresses
	}
	return float64(uint64(float64(j.coldTails[i*nT+t]) * frac))
}

// Compile builds the replay-optimized representation of trace. The result
// references only its own storage; the trace may be mutated afterwards.
// It compiles the same form as StreamCompiler, which never holds the full
// trace, but with the whole trace at hand it counts each job's rows first
// and then allocates every column once, at its final size, instead of
// growing it entry by entry.
func Compile(trace *telemetry.Trace) *CompiledTrace {
	sc := NewStreamCompiler(trace.Thresholds)
	type slot struct{ job, row int }
	slots := make([]slot, len(trace.Entries))
	for i := range trace.Entries {
		e := &trace.Entries[i]
		if err := sc.check(e); err != nil {
			// Trace.Append validates every entry against the threshold set.
			panic(err)
		}
		ji := sc.slot(&e.Key)
		slots[i] = slot{ji, sc.jobs[ji].admit(e.TimestampSec)}
	}

	// One allocation per column family, cut into per-job sub-slices whose
	// capacity ends at the job's last row.
	rows := len(trace.Entries)
	nT := sc.nThresh
	tsSec := make([]int64, rows)
	intervalMin := make([]float64, rows)
	wss := make([]uint64, rows)
	total := make([]uint64, rows)
	frac := make([]float64, rows)
	sum := make([]uint64, rows)
	coldTails := make([]uint64, rows*nT)
	promoTails := make([]uint64, rows*nT)
	a := 0
	for i := range sc.jobs {
		j := &sc.jobs[i]
		b := a + j.n
		j.blocks = []block{{compiledJob: compiledJob{
			key:         j.key,
			n:           j.n,
			tsSec:       tsSec[a:b:b],
			intervalMin: intervalMin[a:b:b],
			wss:         wss[a:b:b],
			total:       total[a:b:b],
			frac:        frac[a:b:b],
			sum:         sum[a:b:b],
			coldTails:   coldTails[a*nT : b*nT : b*nT],
			promoTails:  promoTails[a*nT : b*nT : b*nT],
		}}}
		a = b
	}
	for i, s := range slots {
		sc.jobs[s.job].blocks[0].fill(s.row, &trace.Entries[i], nT)
	}
	return sc.Finish()
}

// Jobs returns the number of distinct jobs in the compiled trace.
func (ct *CompiledTrace) Jobs() int { return len(ct.jobs) }

// Intervals returns the total interval count across all jobs.
func (ct *CompiledTrace) Intervals() int {
	n := 0
	for i := range ct.jobs {
		n += ct.jobs[i].n
	}
	return n
}

// bestFor returns the per-job best-threshold-index columns for slo,
// deriving and caching them on first use. The best index for an interval
// is the smallest predefined threshold whose promotion rate met the SLO —
// SLO-dependent but params-independent, so one derivation serves every
// (K, S) candidate of a tuning session.
func (ct *CompiledTrace) bestFor(slo core.SLO) [][]uint8 {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	if ct.haveBest && ct.bestSLO == slo {
		return ct.bestCols
	}
	cols := make([][]uint8, len(ct.jobs))
	nT := ct.nThresh
	for ji := range ct.jobs {
		j := &ct.jobs[ji]
		col := make([]uint8, j.n)
		for i := range col {
			col[i] = bestThreshold(j.promoTails[i*nT:(i+1)*nT], j.intervalMin[i], j.wss[i], slo.TargetRatePerMin)
		}
		cols[ji] = col
	}
	ct.bestSLO = slo
	ct.bestCols = cols
	ct.haveBest = true
	return cols
}

// bestThreshold is one interval's best threshold index: the smallest
// whose promotion rate, promo[t] per minute of the interval, is within
// target per working-set page; the last when none is. Promotion tails
// never increase with the threshold (telemetry.Entry.Validate holds every
// entry to that), so neither does the rate, and the index is found by
// bisection.
func bestThreshold(promo []uint64, intervalMin float64, wss uint64, target float64) uint8 {
	limit := target * float64(wss)
	lo, hi := 0, len(promo)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if float64(promo[m])/intervalMin <= limit {
			hi = m
		} else {
			lo = m + 1
		}
	}
	return uint8(min(lo, len(promo)-1))
}

// TimeBounds returns the [min, max] interval timestamps in the compiled
// trace, in seconds; (0, 0) when it holds no intervals.
func (ct *CompiledTrace) TimeBounds() (minSec, maxSec int64) {
	for i := range ct.jobs {
		j := &ct.jobs[i]
		if lo := j.tsSec[0]; i == 0 || lo < minSec {
			minSec = lo
		}
		if hi := j.tsSec[j.n-1]; i == 0 || hi > maxSec {
			maxSec = hi
		}
	}
	return minSec, maxSec
}

// Slice returns the part of the compiled trace a staged deployment asks
// about: the intervals with timestamp in [loSec, hiSec) of the jobs keep
// accepts (nil keeps every job). hiSec <= loSec selects nothing. The
// result is a view — its columns alias ct's, best-threshold columns
// already derived included — that replays exactly as a fresh Compile of
// the same entries would: jobs left without an interval are omitted and
// gap counts cover only the selected range.
func (ct *CompiledTrace) Slice(loSec, hiSec int64, keep func(telemetry.JobKey) bool) *CompiledTrace {
	nT := ct.nThresh
	out := &CompiledTrace{nThresh: nT}
	if hiSec <= loSec {
		return out
	}
	ct.mu.Lock()
	best := ct.bestCols
	out.bestSLO, out.haveBest = ct.bestSLO, ct.haveBest
	ct.mu.Unlock()
	for i := range ct.jobs {
		j := &ct.jobs[i]
		a := sort.Search(j.n, func(k int) bool { return j.tsSec[k] >= loSec })
		b := a + sort.Search(j.n-a, func(k int) bool { return j.tsSec[a+k] >= hiSec })
		if a == b || (keep != nil && !keep(j.key)) {
			continue
		}
		out.jobs = append(out.jobs, compiledJob{
			key:         j.key,
			n:           b - a,
			tsSec:       j.tsSec[a:b],
			intervalMin: j.intervalMin[a:b],
			wss:         j.wss[a:b],
			total:       j.total[a:b],
			frac:        j.frac[a:b],
			sum:         j.sum[a:b],
			coldTails:   j.coldTails[a*nT : b*nT],
			promoTails:  j.promoTails[a*nT : b*nT],
			gaps:        inferGaps(j.tsSec[a:b], j.intervalMin[a:b]),
		})
		if out.haveBest {
			out.bestCols = append(out.bestCols, best[i][a:b])
		}
	}
	return out
}

// Run replays the compiled trace under cfg, one job at a time per worker
// (par.Workers). Results do not depend on the worker count.
func (ct *CompiledTrace) Run(cfg Config) (FleetResult, error) {
	if err := cfg.Params.Validate(); err != nil {
		return FleetResult{}, err
	}
	results, err := ct.replayAll([]Phase{{Params: cfg.Params, Enabled: true}}, cfg, nil)
	if err != nil {
		return FleetResult{}, err
	}
	return reduce(results), nil
}

// replayAll replays every job under the phase schedule (validated by the
// caller) and returns the per-job results in job order. When cold is
// non-nil it also receives, per job, the far-memory pages charged in each
// interval — the series the coverage timeline reduces.
func (ct *CompiledTrace) replayAll(phases []Phase, cfg Config, cold [][]float64) ([]JobResult, error) {
	if err := cfg.SLO.Validate(); err != nil {
		return nil, err
	}
	workers := min(par.Workers(), len(ct.jobs))

	// Each worker owns one replayer (its controller), reused
	// across the jobs it claims. Output position is the job index, so the
	// result is identical no matter how jobs land on workers.
	reps := make([]*replayer, workers)
	for w := range reps {
		ctl, err := core.NewController(core.ControllerConfig{SLO: cfg.SLO, Params: phases[0].Params})
		if err != nil {
			return nil, err
		}
		reps[w] = &replayer{ct: ct, phases: phases, target: cfg.SLO.TargetRatePerMin, ctl: ctl}
	}
	best := ct.bestFor(cfg.SLO)
	results := make([]JobResult, len(ct.jobs))
	_ = par.For(len(ct.jobs), workers, func(w, i int) error { // fn never fails
		var series []float64
		if cold != nil {
			series = make([]float64, ct.jobs[i].n)
			cold[i] = series
		}
		results[i] = reps[w].replay(&ct.jobs[i], best[i], series)
		return nil
	})
	return results, nil
}

// replayer is one worker's reusable replay state. It drives the node
// agent's own §4.3 controller (core.Controller) over precompiled
// best-threshold indices: the pool holds predefined threshold indices
// here instead of histogram buckets, and the percentile pick and the max
// with the last best are the same in either index space.
type replayer struct {
	ct *CompiledTrace
	// phases is the parameter schedule: phases[p] governs every interval
	// from its Start until the next phase's. A plain Run is one phase.
	phases []Phase
	target float64 // SLO promotion-rate limit

	ctl *core.Controller // reset per job
}

// replay runs the controller over one job's series. Each interval takes
// its (K, S, Enabled) from the phase in force at its timestamp — looked
// up by index, so the best-threshold history carries across a phase
// change exactly as it does across a production config push. cold, when
// non-nil, has length j.n, is zeroed, and receives the pages charged per
// interval.
func (r *replayer) replay(j *compiledJob, best []uint8, cold []float64) JobResult {
	jr := JobResult{Key: j.key, Intervals: j.n, GapIntervals: j.gaps}
	if j.n == 0 {
		return jr
	}
	nT := r.ct.nThresh
	lastIdx := nT - 1
	r.ctl.Reset(time.Duration(j.tsSec[0]) * time.Second)

	var sumCold, sumColdMin, sumTotal, sumRate float64
	ph, cur := 0, -1
	for i := 0; i < j.n; i++ {
		now := time.Duration(j.tsSec[i]) * time.Second
		ph = phaseAt(r.phases, ph, now)
		p := &r.phases[ph]
		if ph != cur {
			if err := r.ctl.SetParams(p.Params); err != nil {
				panic(err) // phases are validated before any replay
			}
			cur = ph
		}
		// The cold ceiling (coverage denominator) exists whether or not
		// zswap is enabled for the job; otherwise a long warmup S would
		// "improve" coverage simply by excluding young jobs from it.
		sumColdMin += float64(j.coldTails[i*nT])
		sumTotal += float64(j.total[i])
		if p.Enabled && r.ctl.Enabled(now) {
			// Operating threshold chosen from history before this interval;
			// with no history yet, the most conservative one.
			idx := r.ctl.Threshold()
			if idx > lastIdx {
				idx = lastIdx
			}
			// Normalized promotion rate at the operating threshold, derived
			// here with the reference replay's two divisions in its order.
			rate := 0.0
			if wss := float64(j.wss[i]); wss > 0 {
				rate = float64(j.promoTails[i*nT+idx]) / j.intervalMin[i] / wss
			}
			jr.Enabled++
			c := j.coldAt(i, idx, nT)
			sumCold += c
			if cold != nil {
				cold[i] = c
			}
			sumRate += rate
			if rate > r.target {
				jr.Violations++
			}
		}
		// Best threshold for the interval just observed, fed back whether
		// or not zswap is enabled: the kernel histograms exist regardless.
		r.ctl.Observe(now, int(best[i]))
	}

	// Far-memory bytes average over the whole lifetime (zero while
	// disabled); rates average over enabled intervals only.
	n := float64(jr.Intervals)
	jr.MeanColdPages = sumCold / n
	jr.MeanColdAtMinPages = sumColdMin / n
	jr.MeanTotalPages = sumTotal / n
	if jr.Enabled > 0 {
		jr.MeanRate = sumRate / float64(jr.Enabled)
	}
	return jr
}
