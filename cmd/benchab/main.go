// Command benchab is the benchmark's pairing driver. It runs
// bench/run.sh in a base tree and a new tree, one run of each per pair,
// alternating which goes first, and gives one verdict per end-to-end
// metric of BENCHMARK.json: improved, unchanged, regressed or
// unresolved (see judge). Run it from any directory:
//
//	go run ./cmd/benchab -base ../parent -new . -workloads cp_rounds -seeds 42,1337 -pairs 10 -out BENCH.json
//	go run ./cmd/benchab -base ../parent -aa -workloads sim_fleet -pairs 5
//
// -aa runs the base tree against itself: the calibration that shows how
// wide a metric's spread is when nothing changed. A pair whose runs
// disagree on an exact-repeat value, or any incorrect run, ends the
// comparison with an error. The driver writes only the -out file, each
// tree's own .bench_build, and each run's result and log in a temporary
// directory that is removed on success and named in any error. The -out
// file may lie inside a tree: git's view of that one file does not make
// the tree dirty, so one file can collect several calls. Before every
// run the driver times a fixed CPU task in its own process, the host
// anchor (anchor.go), and each pair records the faster of its two
// timings as anchor_ns.
//
// -rejudge FILE reads a file -out wrote, judges its pairs again under the
// current rule, prints them and every verdict that moved, and runs and
// writes nothing:
//
//	go run ./cmd/benchab -rejudge BENCH_45.json
//
// -trajectory FILE... reads several such files and prints, per workload,
// seed and end-to-end metric, each file's base median in the order given
// beside the host anchor its pairs timed (trajectory.go); it too runs and
// writes nothing:
//
//	go run ./cmd/benchab -trajectory BENCH_46.json BENCH_47.json BENCH_48.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "benchab:", err)
		os.Exit(1)
	}
}

// tree is one side of a comparison: the commit checked out in it, and
// whether its files differ from that commit.
type tree struct {
	Commit string `json:"commit"`
	Dirty  bool   `json:"dirty"`
}

// report is what -out writes.
type report struct {
	Host        hostRecord   `json:"host"`
	Base        tree         `json:"base"`
	New         tree         `json:"new"`
	AA          bool         `json:"aa"`
	Comparisons []comparison `json:"comparisons"`
}

func run(args []string, stdout, stderr io.Writer) error {
	flags := flag.NewFlagSet("benchab", flag.ContinueOnError)
	flags.SetOutput(stderr)
	var (
		baseDir   = flags.String("base", "", "base source tree (required)")
		newDir    = flags.String("new", "", "new source tree (required unless -aa)")
		aa        = flags.Bool("aa", false, "run the base tree against itself")
		workloads = flags.String("workloads", "", "comma-separated workloads (required)")
		seeds     = flags.String("seeds", "42", "comma-separated seeds")
		pairs     = flags.Int("pairs", 10, "pairs per workload and seed")
		out       = flags.String("out", "", "write the comparisons as JSON to this file, after those it holds for the same trees")
		again     = flags.String("rejudge", "", "judge the pairs of this -out file again and run nothing")
		traj      = flags.Bool("trajectory", false, "print the base medians of the -out files named as arguments, in order, beside their host anchors, and run nothing")
	)
	if err := flags.Parse(args); err != nil {
		return err
	}
	if *again != "" {
		if flags.NFlag() > 1 || flags.NArg() > 0 {
			return errors.New("-rejudge runs nothing and takes no other flag or argument")
		}
		return rejudgeFile(*again, stdout)
	}
	if *traj {
		if flags.NFlag() > 1 || flags.NArg() == 0 {
			return errors.New("-trajectory runs nothing, takes no other flag and needs one or more files")
		}
		return trajectory(flags.Args(), stdout)
	}
	switch {
	case flags.NArg() > 0:
		return fmt.Errorf("unexpected argument %q", flags.Arg(0))
	case *baseDir == "":
		return errors.New("-base is required")
	case *aa == (*newDir != ""):
		return errors.New("give -new, or -aa to run the base tree against itself")
	case *workloads == "":
		return errors.New("-workloads is required")
	case *pairs < 1:
		return fmt.Errorf("-pairs must be at least 1, not %d", *pairs)
	}
	var seedList []int64
	for _, f := range strings.Split(*seeds, ",") {
		s, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
		if err != nil {
			return fmt.Errorf("-seeds: %w", err)
		}
		seedList = append(seedList, s)
	}
	if *aa {
		*newDir = *baseDir
	}
	specs, err := loadSpecs(filepath.Join(*baseDir, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	rep := report{AA: *aa, Base: treeOf(*baseDir, *out), New: treeOf(*newDir, *out)}
	if *out != "" {
		if err := resume(*out, &rep); err != nil {
			return err
		}
	}
	rep.Host.CPUMHz, rep.Host.CacheSize = readCPUInfo("/proc/cpuinfo")
	dir, err := os.MkdirTemp("", "benchab-")
	if err != nil {
		return err
	}
	anchors := anchorSet()
	for _, w := range strings.Split(*workloads, ",") {
		for _, seed := range seedList {
			c, err := comparePairs(specs, *baseDir, *newDir, w, seed, *pairs, dir, anchors, stderr)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w (runs kept in %s)", w, seed, err, dir)
			}
			if len(rep.Comparisons) > 0 && c.host != rep.Host.host {
				return fmt.Errorf("%s seed %d ran on another host: %+v, not %+v", w, seed, c.host, rep.Host.host)
			}
			printComparison(stdout, &c)
			rep.Host.host = c.host
			rep.Comparisons = append(rep.Comparisons, c)
		}
	}
	if *out != "" {
		b, err := json.MarshalIndent(&rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	return os.RemoveAll(dir)
}

// rejudgeFile prints every comparison of the report at path judged again
// under the current rule, and a line for each verdict that moved. The
// file is not rewritten.
func rejudgeFile(path string, stdout io.Writer) error {
	rep, err := loadReport(path)
	if err != nil {
		return err
	}
	for i := range rep.Comparisons {
		c := &rep.Comparisons[i]
		was := c.rejudge()
		printComparison(stdout, c)
		for j, m := range c.Metrics {
			if m.Verdict != was[j] {
				fmt.Fprintf(stdout, "%s %s seed %d %s: %s, was %s\n", path, c.Workload, c.Seed, m.Name, m.Verdict, was[j])
			}
		}
	}
	return nil
}

// loadReport reads a file -out wrote; one that holds no comparison is an
// error.
func loadReport(path string) (report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return report{}, err
	}
	var rep report
	if err := json.Unmarshal(b, &rep); err != nil {
		return report{}, fmt.Errorf("%s: %w", path, err)
	}
	if len(rep.Comparisons) == 0 {
		return report{}, fmt.Errorf("%s holds no comparison", path)
	}
	return rep, nil
}

// resume loads the comparisons an existing report at path holds, so one
// file can collect runs made in several calls; a report of other trees
// is an error. A missing file is a fresh report.
func resume(path string, rep *report) error {
	b, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	var old report
	if err := json.Unmarshal(b, &old); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if old.Base != rep.Base || old.New != rep.New || old.AA != rep.AA {
		return fmt.Errorf("%s compares %+v with %+v, not %+v with %+v", path, old.Base, old.New, rep.Base, rep.New)
	}
	rep.Host, rep.Comparisons = old.Host, old.Comparisons
	return nil
}

// comparePairs runs n pairs of workload w at seed in the two trees, base
// first in even pairs and new first in odd ones, and compares them. The
// host anchor is timed over anchors before every run.
func comparePairs(specs []metricSpec, baseDir, newDir, w string, seed int64, n int, dir string, anchors [][]byte, progress io.Writer) (comparison, error) {
	var base, cur []benchRun
	var baseFirst []bool
	anchorNS := make([]int64, n)
	for i := 0; i < n; i++ {
		sides := []string{"base", "new"}
		if i%2 == 1 {
			sides[0], sides[1] = sides[1], sides[0]
		}
		for _, side := range sides {
			src := baseDir
			if side == "new" {
				src = newDir
			}
			name := filepath.Join(dir, fmt.Sprintf("%s-%d-%02d-%s", w, seed, i+1, side))
			if ns := timeAnchor(anchors); anchorNS[i] == 0 || ns < anchorNS[i] {
				anchorNS[i] = ns
			}
			start := time.Now()
			r, err := benchOnce(src, w, seed, name)
			if err != nil {
				return comparison{}, err
			}
			fmt.Fprintf(progress, "benchab: %s seed %d pair %d/%d %-4s %5.1f s\n", w, seed, i+1, n, side, time.Since(start).Seconds())
			if side == "base" {
				base = append(base, r)
			} else {
				cur = append(cur, r)
			}
		}
		baseFirst = append(baseFirst, i%2 == 0)
	}
	c, err := compare(specs, base, cur, baseFirst)
	for i := range c.Pairs {
		c.Pairs[i].AnchorNS = anchorNS[i]
	}
	return c, err
}

// benchOnce runs the benchmark once in tree src, writing its result to
// name.json and its output to name.log.
func benchOnce(src, w string, seed int64, name string) (benchRun, error) {
	log, err := os.Create(name + ".log")
	if err != nil {
		return benchRun{}, err
	}
	defer log.Close()
	result, err := filepath.Abs(name + ".json")
	if err != nil {
		return benchRun{}, err
	}
	cmd := exec.Command("bash", "bench/run.sh", "--workload", w, "--seed", strconv.FormatInt(seed, 10), "--out", result)
	cmd.Dir = src
	cmd.Stdout, cmd.Stderr = log, log
	if err := cmd.Run(); err != nil {
		return benchRun{}, fmt.Errorf("bench/run.sh in %s: %w (see %s.log)", src, err, name)
	}
	return readRun(result)
}

// treeOf asks git for the commit checked out in dir and whether the files
// differ from it, the file out aside: a report collected over several
// calls may be written inside the tree it measures. Outside a git
// checkout the commit is "unknown".
func treeOf(dir, out string) tree {
	head, err := exec.Command("git", "-C", dir, "rev-parse", "HEAD").Output()
	if err != nil {
		return tree{Commit: "unknown"}
	}
	args := []string{"-C", dir, "status", "--porcelain"}
	if rel := inTree(dir, out); rel != "" {
		args = append(args, "--", ":/", ":(top,exclude,literal)"+rel)
	}
	status, err := exec.Command("git", args...).Output()
	return tree{Commit: strings.TrimSpace(string(head)), Dirty: err != nil || len(status) > 0}
}

// inTree returns the path of the file out relative to the top of dir's
// work tree, with forward slashes, or "" when out is empty or lies
// outside it. out need not exist yet.
func inTree(dir, out string) string {
	if out == "" {
		return ""
	}
	top, err := exec.Command("git", "-C", dir, "rev-parse", "--show-toplevel").Output()
	if err != nil {
		return ""
	}
	abs, err := filepath.Abs(out)
	if err != nil {
		return ""
	}
	parent, err := filepath.EvalSymlinks(filepath.Dir(abs))
	if err != nil {
		return ""
	}
	rel, err := filepath.Rel(strings.TrimSpace(string(top)), filepath.Join(parent, filepath.Base(abs)))
	if err != nil || rel == ".." || strings.HasPrefix(rel, ".."+string(filepath.Separator)) {
		return ""
	}
	return filepath.ToSlash(rel)
}

// printComparison writes one comparison as a table, one row per metric.
func printComparison(w io.Writer, c *comparison) {
	fmt.Fprintf(w, "%s  seed %d  %d pairs  exact-repeat values agree:", c.Workload, c.Seed, len(c.Pairs))
	for _, x := range c.Exact {
		fmt.Fprintf(w, " %s=%s", x.Name, x.Value)
	}
	fmt.Fprintf(w, "\n%-16s %-5s %-32s %-32s %9s %6s %7s %6s  %s\n",
		"metric", "unit", "base q1 / median / q3", "new q1 / median / q3", "new/base", "wins", "sign p", "bound", "verdict")
	for _, m := range c.Metrics {
		fmt.Fprintf(w, "%-16s %-5s %-32s %-32s %9.4f %6s %7.4f %6.2f  %s\n",
			m.Name, m.Unit, quartiles(m.Base), quartiles(m.New), m.PairedRatio,
			fmt.Sprintf("%d/%d", m.Wins, len(c.Pairs)), m.SignP, m.Bound, m.Verdict)
	}
	fmt.Fprintln(w)
}

func quartiles(s summary) string {
	return fmt.Sprintf("%.4g / %.4g / %.4g", s.Q1, s.Median, s.Q3)
}
