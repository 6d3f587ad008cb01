package model

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"sdfm/internal/core"
	"sdfm/internal/telemetry"
)

// StreamCompiler builds a CompiledTrace incrementally from an entry
// stream. Entries are folded straight into per-job columns as they
// arrive, so a trace that never fits in memory as a []telemetry.Entry (a
// tracestore file scanned chunk by chunk, a collector's live export)
// still compiles: peak memory is the columnar form plus whatever the
// source holds in flight, never the full entry set.
//
// The columns are lossless — every field of every entry, the key once
// per job — and the compiler remembers which job each entry went to, in
// arrival order, so it can also be the only store of the entries it
// holds: View gives them back as they came. That makes a StreamCompiler
// the control plane's tuning window (NewWindow), compiled as it is
// ingested.
//
// Entries may arrive in any order; per-job series that arrive out of
// timestamp order are permutation-sorted at Finish. The result is
// equivalent to Compile on a trace holding the same entries.
type StreamCompiler struct {
	nThresh int
	index   map[telemetry.JobKey]int // position of each job in jobs
	jobs    []streamJob              // in order of first sight
	// arrivals is the job slot of every entry folded, in arrival order.
	// Each job's rows stay in arrival order until Finish, so the slots
	// alone put the entries back in order.
	arrivals []uint32

	// foldBest makes Fold derive each row's best threshold index for slo
	// (see CompiledTrace.bestFor) while the entry is at hand; Finish then
	// hands the columns to the compiled trace as its cached ones.
	foldBest bool
	slo      core.SLO
}

// streamJob is one job's rows under construction, plus the ordering
// state needed to finish them.
type streamJob struct {
	key    telemetry.JobKey
	keySum uint64 // telemetry.KeySum of the key
	n      int    // rows folded, across blocks
	sorted bool   // timestamps arrived in non-decreasing order so far
	lastTS int64  // timestamp of the latest arrival
	hint   int    // rows the job held in the previous window (see Next)
	// blocks hold the rows in arrival order; every block but the last is
	// full.
	blocks []block
}

// block is a run of one job's rows in arrival order. Its columns are
// allocated once at their full length, its rows are written in order and
// never rewritten, and it never moves: a View of it stays valid whatever
// the compiler does next. n counts the rows written.
type block struct {
	compiledJob
	best []uint8 // each row's best threshold index, when the compiler folds them
}

// minRows is the fewest rows a block holds unless a hint sizes it.
const minRows = 8

// NewStreamCompiler starts an out-of-core compile for the given
// predefined threshold set.
func NewStreamCompiler(thresholds []int) *StreamCompiler {
	return &StreamCompiler{
		nThresh: len(thresholds),
		index:   make(map[telemetry.JobKey]int),
	}
}

// NewWindow starts a StreamCompiler that serves as a tuning window judged
// under slo: Fold also derives each row's best threshold index for slo,
// so the compiled trace's first replay under slo has nothing left to
// derive.
func NewWindow(thresholds []int, slo core.SLO) *StreamCompiler {
	sc := NewStreamCompiler(thresholds)
	sc.foldBest, sc.slo = true, slo
	return sc
}

// Len returns the number of entries folded so far.
func (sc *StreamCompiler) Len() int { return len(sc.arrivals) }

// Add folds one entry into its job's columns.
func (sc *StreamCompiler) Add(e telemetry.Entry) error {
	if err := sc.check(&e); err != nil {
		return err
	}
	sc.Fold(sc.slot(&e.Key), &e)
	return nil
}

// check refuses an entry whose tail counts do not match the threshold set.
func (sc *StreamCompiler) check(e *telemetry.Entry) error {
	if nT := sc.nThresh; len(e.ColdTails) != nT || len(e.PromoTails) != nT {
		return fmt.Errorf("model: entry %s has %d/%d tails, compiler expects %d",
			e.Key, len(e.ColdTails), len(e.PromoTails), nT)
	}
	return nil
}

// slot returns k's position in sc.jobs, adding an empty job on first
// sight.
func (sc *StreamCompiler) slot(k *telemetry.JobKey) int {
	ji, ok := sc.index[*k]
	if !ok {
		ji = len(sc.jobs)
		sc.index[*k] = ji
		sc.jobs = append(sc.jobs, streamJob{key: *k, keySum: telemetry.KeySum(k), sorted: true})
	}
	return ji
}

// Resolve appends to slots each entry's job slot — the job found, or
// added empty on first sight — and to keySums its key's checksum prefix
// (telemetry.KeySum), which each job computes once, not once per entry.
// A key among the last few distinct ones of the batch is matched without
// a map lookup: a report carries a handful of jobs, interleaved. The
// slots are what Fold takes; the sums are what
// telemetry.AppendChecksumsKeyed takes.
func (sc *StreamCompiler) Resolve(slots []int, keySums []uint64, entries []telemetry.Entry) ([]int, []uint64) {
	slots, keySums = slices.Grow(slots, len(entries)), slices.Grow(keySums, len(entries))
	var recent [8]int // the last distinct slots, most recent at next-1
	seen, next := 0, 0
	for i := range entries {
		k := &entries[i].Key
		ji := -1
		for r := range seen {
			if s := recent[(next-1-r)&7]; sc.jobs[s].key == *k {
				ji = s
				break
			}
		}
		if ji < 0 {
			ji = sc.slot(k)
			recent[next&7] = ji
			next++
			seen = min(seen+1, len(recent))
		}
		slots = append(slots, ji)
		keySums = append(keySums, sc.jobs[ji].keySum)
	}
	return slots, keySums
}

// Fold adds e as its job's next row; slot is Resolve's answer for it. The
// entry's tail counts must match the threshold set (an entry that passed
// telemetry's Validate for it does). Nothing of e is kept but its values:
// the caller may reuse e's tails afterwards.
//
// A job's first block holds its hint, the rows it had in the previous
// window, or minRows without one; each later block holds a quarter of
// the rows before it (minRows at least), and newBlock may round that up
// to fill its allocation. So the rows standing empty are never more than
// a quarter of a job's columns, or minRows, and no row is ever copied to
// make room.
func (sc *StreamCompiler) Fold(slot int, e *telemetry.Entry) {
	nT := sc.nThresh
	j := &sc.jobs[slot]
	j.admit(e.TimestampSec)
	if k := len(j.blocks); k == 0 || j.blocks[k-1].n == len(j.blocks[k-1].tsSec) {
		rows := j.hint
		if rows == 0 {
			rows = max((j.n-1)/4, minRows)
		}
		j.blocks = append(j.blocks, newBlock(j.key, rows, nT, sc.foldBest))
		j.hint = 0
	}
	b := &j.blocks[len(j.blocks)-1]
	b.fill(b.n, e, nT)
	if sc.foldBest {
		b.best[b.n] = bestThreshold(e.PromoTails, e.IntervalMinutes, e.WSSPages, sc.slo.TargetRatePerMin)
	}
	b.n++
	sc.arrivals = append(sc.arrivals, uint32(slot))
}

// admit counts one arrival at timestamp ts and returns the row it takes
// in the job, in arrival order.
func (j *streamJob) admit(ts int64) int {
	if j.n > 0 && ts < j.lastTS {
		j.sorted = false
	}
	j.lastTS = ts
	j.n++
	return j.n - 1
}

// newBlock allocates an empty block of at least the given rows: one array
// per element type, cut into the columns. The uint64 array, nine tenths
// of a row, is sized up to what the allocator hands out anyway, and the
// block takes as many rows as it holds.
func newBlock(key telemetry.JobKey, rows, nT int, best bool) block {
	w := 3 + 2*nT
	u := slices.Grow([]uint64(nil), rows*w)
	rows = cap(u) / w
	u = u[:rows*w]
	f := make([]float64, 2*rows)
	b := block{compiledJob: compiledJob{
		key:         key,
		tsSec:       make([]int64, rows),
		intervalMin: f[:rows:rows],
		frac:        f[rows:],
		wss:         u[:rows:rows],
		total:       u[rows : 2*rows : 2*rows],
		sum:         u[2*rows : 3*rows : 3*rows],
		coldTails:   u[3*rows : (3+nT)*rows : (3+nT)*rows],
		promoTails:  u[(3+nT)*rows:],
	}}
	if best {
		b.best = make([]uint8, rows)
	}
	return b
}

// fill writes e into row r of the columns, which already hold that row.
// It is the one place an entry becomes compiled values, shared by Compile
// and Fold so the two paths cannot drift apart; entry is its inverse.
func (j *compiledJob) fill(r int, e *telemetry.Entry, nT int) {
	j.tsSec[r] = e.TimestampSec
	j.intervalMin[r] = e.IntervalMinutes
	j.wss[r] = e.WSSPages
	j.total[r] = e.TotalPages
	j.frac[r] = e.CompressibleFrac
	j.sum[r] = e.Checksum
	copy(j.coldTails[r*nT:(r+1)*nT], e.ColdTails)
	copy(j.promoTails[r*nT:(r+1)*nT], e.PromoTails)
}

// entry rebuilds the entry row r was filled from. Its tails are capped
// views of the columns, not copies.
func (j *compiledJob) entry(r, nT int) telemetry.Entry {
	lo, hi := r*nT, (r+1)*nT
	return telemetry.Entry{
		Key:              j.key,
		TimestampSec:     j.tsSec[r],
		IntervalMinutes:  j.intervalMin[r],
		WSSPages:         j.wss[r],
		TotalPages:       j.total[r],
		ColdTails:        j.coldTails[lo:hi:hi],
		PromoTails:       j.promoTails[lo:hi:hi],
		CompressibleFrac: j.frac[r],
		Checksum:         j.sum[r],
	}
}

// rows returns b with every column cut to its n rows and capped there.
func (b *block) rows(nT int) block {
	c := *b
	n := b.n
	c.tsSec, c.intervalMin = b.tsSec[:n:n], b.intervalMin[:n:n]
	c.wss, c.total, c.frac, c.sum = b.wss[:n:n], b.total[:n:n], b.frac[:n:n], b.sum[:n:n]
	c.coldTails, c.promoTails = b.coldTails[:n*nT:n*nT], b.promoTails[:n*nT:n*nT]
	if b.best != nil {
		c.best = b.best[:n:n]
	}
	return c
}

// appendRows copies src's rows into b after b's own.
func (b *block) appendRows(src *block, nT int) {
	r, n := b.n, src.n
	copy(b.tsSec[r:], src.tsSec[:n])
	copy(b.intervalMin[r:], src.intervalMin[:n])
	copy(b.wss[r:], src.wss[:n])
	copy(b.total[r:], src.total[:n])
	copy(b.frac[r:], src.frac[:n])
	copy(b.sum[r:], src.sum[:n])
	copy(b.coldTails[r*nT:], src.coldTails[:n*nT])
	copy(b.promoTails[r*nT:], src.promoTails[:n*nT])
	if b.best != nil {
		copy(b.best[r:], src.best[:n])
	}
	b.n += n
}

// whole returns one block holding all of j's rows in arrival order: its
// only block, or a new one its blocks are joined into.
func (j *streamJob) whole(nT int, best bool) block {
	if len(j.blocks) == 1 {
		return j.blocks[0].rows(nT)
	}
	w := newBlock(j.key, j.n, nT, best)
	for k := range j.blocks {
		w.appendRows(&j.blocks[k], nT)
	}
	return w.rows(nT)
}

// View is a read-only, point-in-time view of the entries a
// StreamCompiler held when View was called. It shares the compiler's
// blocks rather than copying them: a block's rows are never rewritten,
// so the view stays valid, and may be read on another goroutine, while
// the compiler keeps folding or finishes.
type View struct {
	nThresh  int
	jobs     [][]block // each job's blocks, the last cut to its rows
	arrivals []uint32
}

// View takes a view of the entries folded so far.
func (sc *StreamCompiler) View() View {
	v := View{
		nThresh:  sc.nThresh,
		jobs:     make([][]block, len(sc.jobs)),
		arrivals: sc.arrivals[:len(sc.arrivals):len(sc.arrivals)],
	}
	for i := range sc.jobs {
		bs := slices.Clone(sc.jobs[i].blocks)
		if k := len(bs) - 1; k >= 0 {
			bs[k] = bs[k].rows(sc.nThresh)
		}
		v.jobs[i] = bs
	}
	return v
}

// Entries returns the view's entries in the order they were folded, each
// equal to the entry folded. Their tails are views of the columns.
func (v View) Entries() []telemetry.Entry {
	out := make([]telemetry.Entry, len(v.arrivals))
	type cursor struct{ blk, row int }
	next := make([]cursor, len(v.jobs))
	for i, s := range v.arrivals {
		c, bs := &next[s], v.jobs[s]
		if c.row == bs[c.blk].n {
			c.blk, c.row = c.blk+1, 0
		}
		out[i] = bs[c.blk].entry(c.row, v.nThresh)
		c.row++
	}
	return out
}

// Next returns an empty compiler for the window after this one. Every
// job holding rows here is known there, so its entries resolve without
// adding a job, and its first block holds the rows it holds here; a job
// with no rows here is forgotten. Call it before Finish.
func (sc *StreamCompiler) Next() *StreamCompiler {
	nx := &StreamCompiler{nThresh: sc.nThresh, index: make(map[telemetry.JobKey]int), foldBest: sc.foldBest, slo: sc.slo}
	for i := range sc.jobs {
		j := &sc.jobs[i]
		if j.n == 0 {
			continue
		}
		nx.index[j.key] = len(nx.jobs)
		nx.jobs = append(nx.jobs, streamJob{key: j.key, keySum: j.keySum, sorted: true, hint: j.n})
	}
	nx.arrivals = make([]uint32, 0, len(sc.arrivals))
	return nx
}

// Finish joins each job's blocks, orders its rows by timestamp, derives
// the params-independent gap counts, and returns the immutable compiled
// trace, jobs in telemetry.JobKey.Compare order; jobs that never got a
// row are left out. A job whose rows arrived in one block and in order —
// every job of a window sized by Next's hints whose agents report in
// order — costs no copy. Finish writes no array a View may hold. The
// StreamCompiler must not be used afterwards.
func (sc *StreamCompiler) Finish() *CompiledTrace {
	// JobKey.Compare's order, printing each key once rather than twice per
	// comparison; only keys that print alike reach Compare itself.
	type named struct {
		name string
		j    *streamJob
	}
	order := make([]named, 0, len(sc.jobs))
	for i := range sc.jobs {
		if sc.jobs[i].n > 0 {
			order = append(order, named{sc.jobs[i].key.String(), &sc.jobs[i]})
		}
	}
	slices.SortFunc(order, func(a, b named) int {
		if c := strings.Compare(a.name, b.name); c != 0 {
			return c
		}
		return a.j.key.Compare(b.j.key)
	})

	nT := sc.nThresh
	ct := &CompiledTrace{nThresh: nT, jobs: make([]compiledJob, len(order))}
	if sc.foldBest {
		ct.bestSLO, ct.haveBest = sc.slo, true
		ct.bestCols = make([][]uint8, len(order))
	}
	for i, o := range order {
		b := o.j.whole(nT, sc.foldBest)
		if !o.j.sorted {
			b.sortByTimestamp(nT)
		}
		b.gaps = inferGaps(b.tsSec, b.intervalMin)
		ct.jobs[i] = b.compiledJob
		if sc.foldBest {
			ct.bestCols[i] = b.best
		}
	}
	sc.index, sc.jobs, sc.arrivals = nil, nil, nil
	return ct
}

// sortByTimestamp permutes all columns into timestamp order (stable, so
// same-timestamp entries keep arrival order), into new arrays.
func (b *block) sortByTimestamp(nT int) {
	perm := make([]int, b.n)
	for i := range perm {
		perm[i] = i
	}
	sort.SliceStable(perm, func(x, y int) bool { return b.tsSec[perm[x]] < b.tsSec[perm[y]] })

	b.tsSec = permute(b.tsSec, perm, 1)
	b.intervalMin = permute(b.intervalMin, perm, 1)
	b.wss = permute(b.wss, perm, 1)
	b.total = permute(b.total, perm, 1)
	b.frac = permute(b.frac, perm, 1)
	b.sum = permute(b.sum, perm, 1)
	b.coldTails = permute(b.coldTails, perm, nT)
	b.promoTails = permute(b.promoTails, perm, nT)
	if b.best != nil {
		b.best = permute(b.best, perm, 1)
	}
}

// permute returns a new column whose row dst is s's row perm[dst], rows
// being w elements wide.
func permute[T any](s []T, perm []int, w int) []T {
	out := make([]T, len(perm)*w)
	for dst, src := range perm {
		copy(out[dst*w:(dst+1)*w], s[src*w:(src+1)*w])
	}
	return out
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
