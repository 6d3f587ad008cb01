package model

import (
	"fmt"
	"slices"
	"sort"
	"strings"

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
	index   map[telemetry.JobKey]int // position of each job in jobs
	jobs    []streamJob              // in order of first arrival
}

// streamJob is one job's columns under construction, plus the ordering
// state needed to finish them.
type streamJob struct {
	compiledJob
	sorted bool  // timestamps arrived in non-decreasing order so far
	lastTS int64 // timestamp of the latest arrival
}

// NewStreamCompiler starts an out-of-core compile for the given
// predefined threshold set.
func NewStreamCompiler(thresholds []int) *StreamCompiler {
	return &StreamCompiler{
		nThresh: len(thresholds),
		index:   make(map[telemetry.JobKey]int),
	}
}

// Add folds one entry into its job's columns.
func (sc *StreamCompiler) Add(e telemetry.Entry) error {
	ji, row, err := sc.admit(&e)
	if err != nil {
		return err
	}
	j := &sc.jobs[ji]
	j.grow(sc.nThresh)
	j.fill(row, &e, sc.nThresh)
	return nil
}

// admit checks e's tail counts, finds its job (creating it on first
// sight) and counts the arrival: it returns the job's position in
// sc.jobs and the row e occupies in it, in arrival order. It writes no
// column, so Compile can count every job's rows before allocating them.
func (sc *StreamCompiler) admit(e *telemetry.Entry) (job, row int, err error) {
	nT := sc.nThresh
	if len(e.ColdTails) != nT || len(e.PromoTails) != nT {
		return 0, 0, fmt.Errorf("model: entry %s has %d/%d tails, compiler expects %d",
			e.Key, len(e.ColdTails), len(e.PromoTails), nT)
	}
	ji, ok := sc.index[e.Key]
	if !ok {
		ji = len(sc.jobs)
		sc.index[e.Key] = ji
		sc.jobs = append(sc.jobs, streamJob{compiledJob: compiledJob{key: e.Key}, sorted: true})
	}
	j := &sc.jobs[ji]
	if j.n > 0 && e.TimestampSec < j.lastTS {
		j.sorted = false
	}
	j.lastTS = e.TimestampSec
	j.n++
	return ji, j.n - 1, nil
}

// grow appends one zeroed row to every column.
func (j *compiledJob) grow(nT int) {
	j.tsSec = append(j.tsSec, 0)
	j.intervalMin = append(j.intervalMin, 0)
	j.wssF = append(j.wssF, 0)
	j.coldMin = append(j.coldMin, 0)
	j.totalF = append(j.totalF, 0)
	j.promoTails = append(j.promoTails, make([]uint64, nT)...)
	j.coldComp = append(j.coldComp, make([]float64, nT)...)
}

// fill writes e into row r of the columns, which already hold that row.
// It is the one place an entry becomes compiled values, shared by Compile
// and Add so the two paths cannot drift apart.
func (j *compiledJob) fill(r int, e *telemetry.Entry, nT int) {
	j.tsSec[r] = e.TimestampSec
	j.intervalMin[r] = e.IntervalMinutes
	j.wssF[r] = float64(e.WSSPages)
	j.coldMin[r] = float64(e.ColdTails[0])
	j.totalF[r] = float64(e.TotalPages)
	frac := e.CompressibleFrac
	if frac == 0 {
		frac = 1
	}
	copy(j.promoTails[r*nT:(r+1)*nT], e.PromoTails)
	coldComp := j.coldComp[r*nT : (r+1)*nT]
	for t, c := range e.ColdTails {
		// Truncate through uint64 exactly like the reference replay so
		// compiles stay bit-identical to it.
		coldComp[t] = float64(uint64(float64(c) * frac))
	}
}

// Finish orders each job's columns by timestamp, derives the
// params-independent gap counts, and returns the immutable compiled
// trace, jobs in telemetry.JobKey.Compare order. The StreamCompiler must
// not be used afterwards.
func (sc *StreamCompiler) Finish() *CompiledTrace {
	// JobKey.Compare's order, printing each key once rather than twice per
	// comparison; only keys that print alike reach Compare itself.
	type named struct {
		name string
		j    *streamJob
	}
	order := make([]named, len(sc.jobs))
	for i := range sc.jobs {
		order[i] = named{sc.jobs[i].key.String(), &sc.jobs[i]}
	}
	slices.SortFunc(order, func(a, b named) int {
		if c := strings.Compare(a.name, b.name); c != 0 {
			return c
		}
		return a.j.key.Compare(b.j.key)
	})

	ct := &CompiledTrace{nThresh: sc.nThresh, jobs: make([]compiledJob, len(order))}
	for i, o := range order {
		j := o.j
		if !j.sorted {
			j.sortByTimestamp(sc.nThresh)
		}
		j.gaps = inferGaps(j.tsSec, j.intervalMin)
		ct.jobs[i] = j.compiledJob
	}
	sc.index, sc.jobs = nil, nil
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
	for dst, src := range perm {
		tsSec[dst] = j.tsSec[src]
		intervalMin[dst] = j.intervalMin[src]
		wssF[dst] = j.wssF[src]
		coldMin[dst] = j.coldMin[src]
		totalF[dst] = j.totalF[src]
		copy(promoTails[dst*nT:(dst+1)*nT], j.promoTails[src*nT:(src+1)*nT])
		copy(coldComp[dst*nT:(dst+1)*nT], j.coldComp[src*nT:(src+1)*nT])
	}
	j.tsSec, j.intervalMin, j.wssF, j.coldMin, j.totalF = tsSec, intervalMin, wssF, coldMin, totalF
	j.promoTails, j.coldComp = promoTails, coldComp
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
