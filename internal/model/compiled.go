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
// the per-interval tail sums out in dense columns — so that a tuning
// session evaluating dozens of candidate configurations pays the trace
// preparation cost once instead of per evaluation.
//
// The per-interval best-threshold index (the §4.3 feedback signal) depends
// on the SLO but not on the parameters; it is derived lazily on the first
// replay for a given SLO and cached, so the common compile-once /
// replay-many pattern of tuner.Autotune computes it exactly once.
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

// compiledJob is one job's interval series in columnar form. All slices
// have length n except the flattened per-threshold columns, which have
// length n*nThresh with interval i occupying [i*nThresh, (i+1)*nThresh).
type compiledJob struct {
	key telemetry.JobKey
	n   int

	tsSec       []int64   // interval-end timestamps, sorted ascending
	intervalMin []float64 // aggregation interval lengths
	wssF        []float64 // float64(WSSPages)
	coldMin     []float64 // float64(ColdTails[0]): the coverage denominator
	totalF      []float64 // float64(TotalPages)
	promoTails  []uint64  // flattened PromoTails (kept for per-SLO best derivation)

	// coldComp[i*nThresh+j] is the compressible cold page count the replay
	// charges when operating at threshold j: uint64(float64(ColdTails[j]) *
	// compressibleFrac), pre-truncated exactly as the reference replay does.
	coldComp []float64

	// gaps is the total inferred missing intervals (timestamp jumps larger
	// than 1.5x the previous reporting interval) — params-independent.
	gaps int
}

// Compile builds the replay-optimized representation of trace. The result
// references only its own storage; the trace may be mutated afterwards.
// It compiles the same form as StreamCompiler, which never holds the full
// trace, but with the whole trace at hand it counts each job's rows first
// and then allocates every column once, at its final size, instead of
// growing it entry by entry.
func Compile(trace *telemetry.Trace) *CompiledTrace {
	segs := [1][]telemetry.Entry{trace.Entries}
	return CompileSegments(trace.Thresholds, segs[:])
}

// CompileSegments is Compile over the entries of segs in order, as if
// they were one trace's Entries under thresholds: a window kept in
// segments compiles without first being copied into one slice. Every
// entry must match the threshold count.
func CompileSegments(thresholds []int, segs [][]telemetry.Entry) *CompiledTrace {
	sc := NewStreamCompiler(thresholds)
	type slot struct{ job, row int }
	rows := 0
	for _, seg := range segs {
		rows += len(seg)
	}
	slots := make([]slot, 0, rows)
	for _, seg := range segs {
		for i := range seg {
			job, row, err := sc.admit(&seg[i])
			if err != nil {
				// Entries in a validated window always match the threshold set.
				panic(err)
			}
			slots = append(slots, slot{job, row})
		}
	}

	// One allocation per column family, cut into per-job sub-slices whose
	// capacity ends at the job's last row.
	nT := sc.nThresh
	tsSec := make([]int64, rows)
	intervalMin := make([]float64, rows)
	wssF := make([]float64, rows)
	coldMin := make([]float64, rows)
	totalF := make([]float64, rows)
	promoTails := make([]uint64, rows*nT)
	coldComp := make([]float64, rows*nT)
	a := 0
	for i := range sc.jobs {
		j := &sc.jobs[i]
		b := a + j.n
		j.tsSec = tsSec[a:b:b]
		j.intervalMin = intervalMin[a:b:b]
		j.wssF = wssF[a:b:b]
		j.coldMin = coldMin[a:b:b]
		j.totalF = totalF[a:b:b]
		j.promoTails = promoTails[a*nT : b*nT : b*nT]
		j.coldComp = coldComp[a*nT : b*nT : b*nT]
		a = b
	}

	k := 0
	for _, seg := range segs {
		for i := range seg {
			s := slots[k]
			sc.jobs[s.job].fill(s.row, &seg[i], nT)
			k++
		}
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
		for i := 0; i < j.n; i++ {
			limit := slo.TargetRatePerMin * j.wssF[i]
			row := i * nT
			best := nT - 1
			for t := 0; t < nT; t++ {
				if float64(j.promoTails[row+t])/j.intervalMin[i] <= limit {
					best = t
					break
				}
			}
			col[i] = uint8(best)
		}
		cols[ji] = col
	}
	ct.bestSLO = slo
	ct.bestCols = cols
	ct.haveBest = true
	return cols
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
// result is a view — its columns alias ct's — that replays exactly as a
// fresh Compile of the same entries would: jobs left without an interval
// are omitted and gap counts cover only the selected range.
func (ct *CompiledTrace) Slice(loSec, hiSec int64, keep func(telemetry.JobKey) bool) *CompiledTrace {
	nT := ct.nThresh
	out := &CompiledTrace{nThresh: nT}
	if hiSec <= loSec {
		return out
	}
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
			wssF:        j.wssF[a:b],
			coldMin:     j.coldMin[a:b],
			totalF:      j.totalF[a:b],
			promoTails:  j.promoTails[a*nT : b*nT],
			coldComp:    j.coldComp[a*nT : b*nT],
			gaps:        inferGaps(j.tsSec[a:b], j.intervalMin[a:b]),
		})
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
		sumColdMin += j.coldMin[i]
		sumTotal += j.totalF[i]
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
			if j.wssF[i] > 0 {
				rate = float64(j.promoTails[i*nT+idx]) / j.intervalMin[i] / j.wssF[i]
			}
			jr.Enabled++
			sumCold += j.coldComp[i*nT+idx]
			if cold != nil {
				cold[i] = j.coldComp[i*nT+idx]
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
