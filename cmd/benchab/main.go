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
// directory that is removed on success and named in any error.
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
	Host        host         `json:"host"`
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
	)
	if err := flags.Parse(args); err != nil {
		return err
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
	rep := report{AA: *aa, Base: treeOf(*baseDir), New: treeOf(*newDir)}
	if *out != "" {
		if err := resume(*out, &rep); err != nil {
			return err
		}
	}
	dir, err := os.MkdirTemp("", "benchab-")
	if err != nil {
		return err
	}
	for _, w := range strings.Split(*workloads, ",") {
		for _, seed := range seedList {
			c, err := comparePairs(specs, *baseDir, *newDir, w, seed, *pairs, dir, stderr)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w (runs kept in %s)", w, seed, err, dir)
			}
			if len(rep.Comparisons) > 0 && c.host != rep.Host {
				return fmt.Errorf("%s seed %d ran on another host: %+v, not %+v", w, seed, c.host, rep.Host)
			}
			printComparison(stdout, &c)
			rep.Host = c.host
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
// first in even pairs and new first in odd ones, and compares them.
func comparePairs(specs []metricSpec, baseDir, newDir, w string, seed int64, n int, dir string, progress io.Writer) (comparison, error) {
	var base, cur []benchRun
	var baseFirst []bool
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
	return compare(specs, base, cur, baseFirst)
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
// differ from it; outside a git checkout the commit is "unknown".
func treeOf(dir string) tree {
	head, err := exec.Command("git", "-C", dir, "rev-parse", "HEAD").Output()
	if err != nil {
		return tree{Commit: "unknown"}
	}
	status, err := exec.Command("git", "-C", dir, "status", "--porcelain").Output()
	return tree{Commit: strings.TrimSpace(string(head)), Dirty: err != nil || len(status) > 0}
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
