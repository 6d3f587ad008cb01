package model

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"sdfm/internal/core"
	"sdfm/internal/fleet"
	"sdfm/internal/telemetry"
)

// streamCompile is the out-of-core path over an in-memory trace.
func streamCompile(t *testing.T, tr *telemetry.Trace) *CompiledTrace {
	t.Helper()
	sc := NewStreamCompiler(tr.Thresholds)
	for _, e := range tr.Entries {
		if err := sc.Add(e); err != nil {
			t.Fatal(err)
		}
	}
	return sc.Finish()
}

// windowCompile folds tr's entries into a window judged under slo the
// way the control plane does, Resolve then Fold, in batches of batch
// entries, and returns its View and the finished compile.
func windowCompile(tr *telemetry.Trace, slo core.SLO, batch int) (View, *CompiledTrace) {
	w := NewWindow(tr.Thresholds, slo)
	var slots []int
	for lo := 0; lo < len(tr.Entries); lo += batch {
		b := tr.Entries[lo:min(lo+batch, len(tr.Entries))]
		slots, _ = w.Resolve(slots[:0], nil, b)
		for i := range b {
			w.Fold(slots[i], &b[i])
		}
	}
	v := w.View()
	return v, w.Finish()
}

// sameCompiled reports the first difference between two compiled traces:
// job order, row counts, gap counts, every column bit for bit, and the
// best-threshold columns both derive for core.DefaultSLO.
func sameCompiled(a, b *CompiledTrace) (string, bool) {
	if a.nThresh != b.nThresh || len(a.jobs) != len(b.jobs) {
		return "shape", false
	}
	sameF := func(x, y []float64) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				return false
			}
		}
		return true
	}
	bestA, bestB := a.bestFor(core.DefaultSLO), b.bestFor(core.DefaultSLO)
	for i := range a.jobs {
		x, y := &a.jobs[i], &b.jobs[i]
		switch {
		case x.key != y.key:
			return "key of job " + x.key.String(), false
		case x.n != y.n || x.gaps != y.gaps:
			return "rows or gaps of " + x.key.String(), false
		case !slices.Equal(x.tsSec, y.tsSec) || !slices.Equal(x.wss, y.wss) || !slices.Equal(x.total, y.total) ||
			!slices.Equal(x.sum, y.sum) || !slices.Equal(x.coldTails, y.coldTails) || !slices.Equal(x.promoTails, y.promoTails):
			return "an integer column of " + x.key.String(), false
		case !sameF(x.intervalMin, y.intervalMin) || !sameF(x.frac, y.frac):
			return "a float column of " + x.key.String(), false
		case !slices.Equal(bestA[i], bestB[i]):
			return "the best thresholds of " + x.key.String(), false
		}
	}
	return "", true
}

// TestCompileMatchesStreamCompiler holds the compile paths to one
// result: Compile counts rows and fills them in place, Add grows the
// columns a row at a time, and a window resolves and folds batches and
// derives its best thresholds as it folds; all share the per-entry fill
// and Finish. A window's View gives back the entries it was fed, in
// order.
func TestCompileMatchesStreamCompiler(t *testing.T) {
	shuffled := func(tr *telemetry.Trace, seed int64) *telemetry.Trace {
		rand.New(rand.NewSource(seed)).Shuffle(len(tr.Entries), func(i, j int) {
			tr.Entries[i], tr.Entries[j] = tr.Entries[j], tr.Entries[i]
		})
		return tr
	}
	withDup := equivTrace(t)
	addDuplicateTimestampJob(t, withDup)
	reversed := variableTrace(t, []variableEntry{{300, 5}, {600, 5}, {1200, 5}, {1500, 5}})
	for i, j := 0, len(reversed.Entries)-1; i < j; i, j = i+1, j-1 {
		reversed.Entries[i], reversed.Entries[j] = reversed.Entries[j], reversed.Entries[i]
	}
	cases := []struct {
		name string
		tr   *telemetry.Trace
	}{
		{"in order", equivTrace(t)},
		{"shuffled", shuffled(equivTrace(t), 11)},
		{"out-of-order timestamps", reversed},
		{"duplicate timestamps", withDup},
		{"one-entry job", variableTrace(t, []variableEntry{{300, 5}})},
		{"empty", telemetry.NewTrace()},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if what, ok := sameCompiled(Compile(c.tr), streamCompile(t, c.tr)); !ok {
				t.Errorf("Compile and StreamCompiler differ in %s", what)
			}
			for _, batch := range []int{1, 7, 64} {
				v, ct := windowCompile(c.tr, core.DefaultSLO, batch)
				if what, ok := sameCompiled(ct, Compile(c.tr)); !ok {
					t.Errorf("a window fed %d entries at a time and Compile differ in %s", batch, what)
				}
				if got := v.Entries(); len(got) != len(c.tr.Entries) || (len(got) > 0 && !reflect.DeepEqual(got, c.tr.Entries)) {
					t.Errorf("the window's view holds %d entries, not the %d fed in order", len(got), len(c.tr.Entries))
				}
			}
		})
	}

	// Same-timestamp entries keep their arrival order on both paths.
	dupKey := telemetry.JobKey{Cluster: "c", Machine: "m", Job: "dup"}
	var arrived []telemetry.Entry
	for _, e := range withDup.Entries {
		if e.Key == dupKey {
			arrived = append(arrived, e)
		}
	}
	sort.SliceStable(arrived, func(a, b int) bool { return arrived[a].TimestampSec < arrived[b].TimestampSec })
	ct := Compile(withDup)
	ji := slices.IndexFunc(ct.jobs, func(j compiledJob) bool { return j.key == dupKey })
	if ji < 0 {
		t.Fatalf("%s missing from the compile", dupKey)
	}
	for r, e := range arrived {
		if got := ct.jobs[ji].coldTails[r*ct.nThresh]; got != e.ColdTails[0] {
			t.Fatalf("row %d of %s holds cold %v, arrival order says %v", r, dupKey, got, e.ColdTails[0])
		}
	}
}

// TestCompileAllocs pins the count-then-fill compile: a round's window
// (fleet 4×8×5, 6 h 5 min) compiles in a few allocations per job, not one
// per column growth.
func TestCompileAllocs(t *testing.T) {
	tr, err := fleet.Generate(fleet.Config{
		Clusters: 4, MachinesPerCluster: 8, JobsPerMachine: 5,
		Duration: 6*time.Hour + 5*time.Minute, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	jobs := Compile(tr).Jobs()
	allocs := testing.AllocsPerRun(5, func() { Compile(tr) })
	t.Logf("Compile of %d entries / %d jobs: %.0f allocations", len(tr.Entries), jobs, allocs)
	if limit := float64(4*jobs + 32); allocs > limit {
		t.Errorf("Compile of %d entries / %d jobs made %.0f allocations, want at most %.0f", len(tr.Entries), jobs, allocs, limit)
	}
}

// TestJobsThatPrintAlikeCompileInOneOrder: '/' is legal inside a key
// field, so distinct keys can print the same string. Their order must
// not depend on map iteration, or two compiles of one window disagree.
func TestJobsThatPrintAlikeCompileInOneOrder(t *testing.T) {
	tr := telemetry.NewTrace()
	n := len(tr.Thresholds)
	for _, k := range []telemetry.JobKey{
		{Cluster: "a", Machine: "b/c", Job: "d"},
		{Cluster: "a/b", Machine: "c", Job: "d"},
	} {
		e := telemetry.Entry{
			Key: k, TimestampSec: 300, IntervalMinutes: 5, WSSPages: 1, TotalPages: 1,
			ColdTails: make([]uint64, n), PromoTails: make([]uint64, n),
		}
		if err := tr.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	first := Compile(tr).jobs[0].key
	for i := 1; i < 50; i++ {
		if got := Compile(tr).jobs[0].key; got != first {
			t.Fatalf("compile %d put %#v first, compile 0 put %#v", i, got, first)
		}
	}
}

// TestWindowGrowth pins the window's growth rule. Without a hint a job's
// columns stand at most a quarter empty, or minRows rows, and no row is
// copied to grow them. The window after a cut sizes each job's first
// block to hold the rows the job held in the cut one, so a job that
// reports as often again finishes in that one block, uncopied.
func TestWindowGrowth(t *testing.T) {
	tr := equivTrace(t)
	w := NewWindow(tr.Thresholds, core.DefaultSLO)
	var slots []int
	for i := range tr.Entries {
		slots, _ = w.Resolve(slots[:0], nil, tr.Entries[i:i+1])
		w.Fold(slots[0], &tr.Entries[i])
		j := &w.jobs[slots[0]]
		capRows := 0
		for k, b := range j.blocks {
			capRows += len(b.tsSec)
			if k < len(j.blocks)-1 && b.n != len(b.tsSec) {
				t.Fatalf("%s: block %d of %d holds %d of %d rows", j.key, k, len(j.blocks), b.n, len(b.tsSec))
			}
		}
		if empty := capRows - j.n; empty > max(minRows, capRows/4) {
			t.Fatalf("%s: %d of %d rows stand empty", j.key, empty, capRows)
		}
	}

	next := w.Next()
	want := w.Finish()
	for i := range tr.Entries {
		slots, _ = next.Resolve(slots[:0], nil, tr.Entries[i:i+1])
		next.Fold(slots[0], &tr.Entries[i])
	}
	if len(next.jobs) != want.Jobs() {
		t.Fatalf("the next window knows %d jobs, the cut one held %d", len(next.jobs), want.Jobs())
	}
	blocks := make([]*int64, 0, len(next.jobs))
	for i := range next.jobs {
		j := &next.jobs[i]
		if len(j.blocks) != 1 {
			t.Fatalf("%s: %d rows again went to %d blocks, want one", j.key, j.n, len(j.blocks))
		}
		blocks = append(blocks, &j.blocks[0].tsSec[0])
	}
	ct := next.Finish()
	if what, ok := sameCompiled(ct, want); !ok {
		t.Fatalf("the same entries compile otherwise in the next window: %s", what)
	}
	for i := range ct.jobs {
		if !slices.Contains(blocks, &ct.jobs[i].tsSec[0]) {
			t.Errorf("%s: Finish copied a job held in one block in order", ct.jobs[i].key)
		}
	}
}
