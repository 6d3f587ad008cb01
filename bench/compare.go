package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
)

// benchmarkSpec is the part of BENCHMARK.json compare and verify read.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// loadBounds reads the regression bounds from BENCHMARK.json in the
// current directory (the repository root).
func loadBounds() (map[string]float64, error) {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, fmt.Errorf("reading bounds (run from the repository root): %w", err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	bounds := make(map[string]float64)
	for _, m := range spec.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	return bounds, nil
}

// verdict compares one end-to-end metric of two runs against its bound.
// worse is how much worse the new value is, as a share of the base.
func verdict(base, cur *metricValue, bound float64) (ratio float64, v string) {
	if base.Value == 0 {
		return 0, "unresolved"
	}
	ratio = cur.Value / base.Value
	worse := ratio - 1
	if base.Better == higher {
		worse = 1 - ratio
	}
	// A run's spread is the distance between the quartiles of its
	// per-episode estimates over √n — about the spread of their median —
	// as a share of that median. When it exceeds the bound the two runs
	// cannot resolve a change of the bound's size.
	for _, m := range []*metricValue{base, cur} {
		if s := m.Episodes; s != nil && s.P50 != 0 && (s.Q3-s.Q1)/math.Sqrt(float64(s.N))/s.P50 > bound {
			return ratio, "unresolved"
		}
	}
	switch {
	case worse > bound:
		return ratio, "regressed"
	case worse < -bound:
		return ratio, "improved"
	}
	return ratio, "unchanged"
}

// sameHost refuses result pairs whose numbers do not mean the same thing.
func sameHost(a, b *resultFile) error {
	if a.Host.NProc != b.Host.NProc || a.Host.GOMAXPROCS != b.Host.GOMAXPROCS {
		return fmt.Errorf("hosts differ: nproc/GOMAXPROCS %d/%d vs %d/%d",
			a.Host.NProc, a.Host.GOMAXPROCS, b.Host.NProc, b.Host.GOMAXPROCS)
	}
	if a.Host.GoVersion != b.Host.GoVersion {
		return fmt.Errorf("Go versions differ: %s vs %s", a.Host.GoVersion, b.Host.GoVersion)
	}
	return nil
}

func compareMain(args []string) error {
	stdout := os.Stdout
	if len(args) != 2 {
		return fmt.Errorf("usage: compare old.json new.json")
	}
	old, err := readResultFile(args[0])
	if err != nil {
		return err
	}
	cur, err := readResultFile(args[1])
	if err != nil {
		return err
	}
	if err := sameHost(old, cur); err != nil {
		return fmt.Errorf("refusing to compare: %w", err)
	}
	bounds, err := loadBounds()
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "base %s (commit %s)\nnew  %s (commit %s)\n\n", args[0], old.Host.Commit, args[1], cur.Host.Commit)
	fmt.Fprintf(stdout, "%-16s %-16s %14s %14s %12s %7s  %s\n", "workload", "metric", "base", "new", "new/base", "bound", "verdict")
	regressed, rows := 0, 0
	for i := range old.Runs {
		a := &old.Runs[i]
		if a.Trace {
			continue // end-to-end numbers never come from a traced run
		}
		for j := range cur.Runs {
			b := &cur.Runs[j]
			if b.Trace || b.Workload != a.Workload {
				continue
			}
			if a.Seed != b.Seed || a.Scale != b.Scale || a.Sizes != b.Sizes {
				return fmt.Errorf("refusing to compare %s: seed/scale/sizes differ (%d/%s vs %d/%s)",
					a.Workload, a.Seed, a.Scale, b.Seed, b.Scale)
			}
			for k := range a.Metrics {
				base := &a.Metrics[k]
				now := b.metric(base.Name)
				if now == nil {
					continue
				}
				ratio, v := verdict(base, now, bounds[base.Name])
				fmt.Fprintf(stdout, "%-16s %-16s %14.4f %14.4f %12.4f %7.2f  %s\n",
					a.Workload, base.Name, base.Value, now.Value, ratio, bounds[base.Name], v)
				rows++
				if v == "regressed" {
					regressed++
				}
			}
		}
	}
	if rows == 0 {
		return fmt.Errorf("the two files share no untraced workload")
	}
	if regressed > 0 {
		return fmt.Errorf("%d of %d rows regressed beyond their bound", regressed, rows)
	}
	return nil
}

// verifyMain is the determinism guard: the workload twice at one seed, each
// in a fresh process; every exact-repeat value must be identical and every
// end-to-end metric within its bound.
func verifyMain(args []string) error {
	stdout := os.Stdout
	rf, err := parseRunFlags("verify", args)
	if err != nil {
		return err
	}
	if findWorkload(rf.opt.workload) == nil {
		return fmt.Errorf("verify takes one workload, not %q", rf.opt.workload)
	}
	bounds, err := loadBounds()
	if err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(rf.opt.tmpBase, 0o755); err != nil {
		return err
	}
	var runs [2]*runResult
	for i := range runs {
		part := filepath.Join(rf.opt.tmpBase, fmt.Sprintf("verify-%d-%d.json", os.Getpid(), i))
		child := exec.Command(self, append(append([]string(nil), args...), "-trace", "0", "-out", part)...)
		child.Stderr = os.Stderr // its report goes to the -out file
		runErr := child.Run()
		one, err := readResultFile(part)
		os.Remove(part)
		if runErr != nil {
			return fmt.Errorf("run %d: %w", i+1, runErr)
		}
		if err != nil {
			return err
		}
		runs[i] = &one.Runs[0]
	}
	problems := diffRuns(stdout, runs[0], runs[1], bounds)
	if problems > 0 {
		return fmt.Errorf("%s: two runs at seed %d disagree in %d places", rf.opt.workload, rf.opt.seed, problems)
	}
	fmt.Fprintf(stdout, "%s: two runs at seed %d agree\n", rf.opt.workload, rf.opt.seed)
	return nil
}

// diffRuns prints both runs side by side and counts disagreements.
func diffRuns(w io.Writer, a, b *runResult, bounds map[string]float64) int {
	problems := 0
	fmt.Fprintf(w, "%-24s %22s %22s\n", "exact-repeat value", "run 1", "run 2")
	for i, x := range a.Exact {
		other := "(missing)"
		if i < len(b.Exact) && b.Exact[i].Name == x.Name {
			other = b.Exact[i].Value
		}
		mark := ""
		if other != x.Value {
			mark = "  DIFFERS"
			problems++
		}
		fmt.Fprintf(w, "%-24s %22s %22s%s\n", x.Name, x.Value, other, mark)
	}
	if len(a.Exact) != len(b.Exact) {
		problems++
	}
	if a.Failed != b.Failed {
		fmt.Fprintf(w, "failed operations: %d vs %d  DIFFERS\n", a.Failed, b.Failed)
		problems++
	}
	fmt.Fprintf(w, "\n%-24s %22s %22s %10s %7s\n", "end-to-end metric", "run 1", "run 2", "run2/run1", "bound")
	for i := range a.Metrics {
		m := &a.Metrics[i]
		o := b.metric(m.Name)
		if o == nil {
			problems++
			continue
		}
		ratio := o.Value / m.Value
		mark := ""
		if d := ratio - 1; d > bounds[m.Name] || -d > bounds[m.Name] {
			mark = "  BEYOND BOUND"
			problems++
		}
		fmt.Fprintf(w, "%-24s %22.4f %22.4f %10.4f %7.2f%s\n", m.Name, m.Value, o.Value, ratio, bounds[m.Name], mark)
	}
	return problems
}
