package model

import (
	"fmt"
	"sort"

	"sdfm/internal/telemetry"
)

// StreamCompiler builds a CompiledTrace incrementally from an entry
// stream — the out-of-core compile path. Entries are folded straight
// into per-job columns as they arrive, so a trace that never fits in
// memory as a []telemetry.Entry (a tracestore file scanned chunk by
// chunk, a collector's live export) still compiles: peak memory is the
// compiled columnar form plus whatever the source holds in flight, never
// the full entry set.
//
// Entries may arrive in any order; per-job series that arrive out of
// timestamp order are permutation-sorted at Finish. The result is
// equivalent to Compile on a trace holding the same entries.
type StreamCompiler struct {
	nThresh int
	jobs    map[telemetry.JobKey]*streamJob
}

// streamJob is one job's columns under construction, plus the ordering
// state needed to finish them.
type streamJob struct {
	compiledJob
	sorted bool // timestamps appended in non-decreasing order so far
}

// NewStreamCompiler starts an out-of-core compile for the given
// predefined threshold set.
func NewStreamCompiler(thresholds []int) *StreamCompiler {
	return &StreamCompiler{
		nThresh: len(thresholds),
		jobs:    make(map[telemetry.JobKey]*streamJob),
	}
}

// Add folds one entry into its job's columns.
func (sc *StreamCompiler) Add(e telemetry.Entry) error {
	nT := sc.nThresh
	if len(e.ColdTails) != nT || len(e.PromoTails) != nT {
		return fmt.Errorf("model: entry %s has %d/%d tails, compiler expects %d",
			e.Key, len(e.ColdTails), len(e.PromoTails), nT)
	}
	j, ok := sc.jobs[e.Key]
	if !ok {
		j = &streamJob{compiledJob: compiledJob{key: e.Key}, sorted: true}
		sc.jobs[e.Key] = j
	}
	if j.n > 0 && e.TimestampSec < j.tsSec[j.n-1] {
		j.sorted = false
	}
	j.tsSec = append(j.tsSec, e.TimestampSec)
	j.intervalMin = append(j.intervalMin, e.IntervalMinutes)
	j.wssF = append(j.wssF, float64(e.WSSPages))
	j.coldMin = append(j.coldMin, float64(e.ColdTails[0]))
	j.totalF = append(j.totalF, float64(e.TotalPages))
	frac := e.CompressibleFrac
	if frac == 0 {
		frac = 1
	}
	for t := 0; t < nT; t++ {
		j.promoTails = append(j.promoTails, e.PromoTails[t])
		// Truncate through uint64 exactly like the reference replay so
		// streamed compiles stay bit-identical to it.
		j.coldComp = append(j.coldComp, float64(uint64(float64(e.ColdTails[t])*frac)))
		rate := 0.0
		if e.WSSPages > 0 {
			rate = float64(e.PromoTails[t]) / e.IntervalMinutes / float64(e.WSSPages)
		}
		j.rateCol = append(j.rateCol, rate)
	}
	j.n++
	return nil
}

// Finish orders each job's columns by timestamp, derives the
// params-independent gap counts, and returns the immutable compiled
// trace. The StreamCompiler must not be used afterwards.
func (sc *StreamCompiler) Finish() *CompiledTrace {
	keys := make([]telemetry.JobKey, 0, len(sc.jobs))
	for k := range sc.jobs {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })

	ct := &CompiledTrace{nThresh: sc.nThresh, jobs: make([]compiledJob, 0, len(keys))}
	for _, k := range keys {
		j := sc.jobs[k]
		if !j.sorted {
			j.sortByTimestamp(sc.nThresh)
		}
		j.gaps = inferGaps(j.tsSec, j.intervalMin)
		ct.jobs = append(ct.jobs, j.compiledJob)
	}
	sc.jobs = nil
	return ct
}

// sortByTimestamp permutes all columns into timestamp order (stable, so
// same-timestamp entries keep arrival order).
func (j *streamJob) sortByTimestamp(nT int) {
	perm := make([]int, j.n)
	for i := range perm {
		perm[i] = i
	}
	sort.SliceStable(perm, func(a, b int) bool { return j.tsSec[perm[a]] < j.tsSec[perm[b]] })

	tsSec := make([]int64, j.n)
	intervalMin := make([]float64, j.n)
	wssF := make([]float64, j.n)
	coldMin := make([]float64, j.n)
	totalF := make([]float64, j.n)
	promoTails := make([]uint64, j.n*nT)
	coldComp := make([]float64, j.n*nT)
	rateCol := make([]float64, j.n*nT)
	for dst, src := range perm {
		tsSec[dst] = j.tsSec[src]
		intervalMin[dst] = j.intervalMin[src]
		wssF[dst] = j.wssF[src]
		coldMin[dst] = j.coldMin[src]
		totalF[dst] = j.totalF[src]
		copy(promoTails[dst*nT:(dst+1)*nT], j.promoTails[src*nT:(src+1)*nT])
		copy(coldComp[dst*nT:(dst+1)*nT], j.coldComp[src*nT:(src+1)*nT])
		copy(rateCol[dst*nT:(dst+1)*nT], j.rateCol[src*nT:(src+1)*nT])
	}
	j.tsSec, j.intervalMin, j.wssF, j.coldMin, j.totalF = tsSec, intervalMin, wssF, coldMin, totalF
	j.promoTails, j.coldComp, j.rateCol = promoTails, coldComp, rateCol
	j.sorted = true
}

// inferGaps counts the intervals a sorted series should contain but does
// not: timestamp jumps larger than 1.5x the previous reporting interval.
func inferGaps(tsSec []int64, intervalMin []float64) int {
	gaps := 0
	var prevTS int64 = -1
	var prevInterval float64
	for i := range tsSec {
		if prevTS >= 0 && prevInterval > 0 {
			step := float64(tsSec[i]-prevTS) / 60
			if step > 1.5*prevInterval {
				gaps += int(step/prevInterval+0.5) - 1
			}
		}
		prevTS, prevInterval = tsSec[i], intervalMin[i]
	}
	return gaps
}
