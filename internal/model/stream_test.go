package model

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

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

// sameCompiled reports the first difference between two compiled traces:
// job order, row counts, gap counts, and every column bit for bit.
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
	for i := range a.jobs {
		x, y := &a.jobs[i], &b.jobs[i]
		switch {
		case x.key != y.key:
			return "key of job " + x.key.String(), false
		case x.n != y.n || x.gaps != y.gaps:
			return "rows or gaps of " + x.key.String(), false
		case !slices.Equal(x.tsSec, y.tsSec) || !slices.Equal(x.promoTails, y.promoTails):
			return "an integer column of " + x.key.String(), false
		case !sameF(x.intervalMin, y.intervalMin) || !sameF(x.wssF, y.wssF) ||
			!sameF(x.coldMin, y.coldMin) || !sameF(x.totalF, y.totalF) || !sameF(x.coldComp, y.coldComp):
			return "a float column of " + x.key.String(), false
		}
	}
	return "", true
}

// splitSegments cuts entries into views of 1, 2, 4, … entries, with an
// empty segment first, the way a segmented window holds them.
func splitSegments(entries []telemetry.Entry) [][]telemetry.Entry {
	segs := [][]telemetry.Entry{entries[:0]}
	for n := 1; len(entries) > 0; n *= 2 {
		k := min(n, len(entries))
		segs = append(segs, entries[:k:k])
		entries = entries[k:]
	}
	return segs
}

// TestCompileMatchesStreamCompiler holds the two compile paths to one
// result: Compile counts rows and fills them in place, Add grows the
// columns a row at a time, and both share the per-entry fill and Finish.
// CompileSegments over any cut of the entries is Compile.
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
			segs := splitSegments(c.tr.Entries)
			if what, ok := sameCompiled(CompileSegments(c.tr.Thresholds, segs), Compile(c.tr)); !ok {
				t.Errorf("CompileSegments over %d segments and Compile differ in %s", len(segs), what)
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
		if got := ct.jobs[ji].coldMin[r]; got != float64(e.ColdTails[0]) {
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
