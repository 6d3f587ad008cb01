// Command bench is the repository benchmark: four workloads, six
// end-to-end metrics, a per-layer ledger and a traced run. BENCHMARK.json
// at the repository root names them; README.md in this directory explains
// them.
//
//	bash bench/run.sh --workload <name|all> [--seed n] [--seconds s] [--trace 0|1] [--scale std|smoke] [--out f.json]
//	bash bench/run.sh compare old.json new.json
//	bash bench/run.sh verify --workload <name> [--seed n]
//
// A run executes one workload in a fresh process: several episodes of the
// same fixed, seed-derived work (set-up, measured window, output checks),
// repeated until the windows add up to --seconds. It prints every metric
// by name with unit and direction, then — as the last line of standard
// output — one JSON object {correct, attempted, failed, metrics}, and
// exits non-zero if an output check or an operation failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// buildDir holds everything a run leaves behind; .gitignore names it.
const buildDir = ".bench_build"

func main() {
	args := os.Args[1:]
	var err error
	switch {
	case len(args) > 0 && args[0] == "compare":
		err = compareMain(args[1:])
	case len(args) > 0 && args[0] == "verify":
		err = verifyMain(args[1:])
	default:
		err = runMain(args)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runFlags are the flags of a run, shared with verify.
type runFlags struct {
	opt options
	out string
}

func parseRunFlags(name string, args []string) (*runFlags, error) {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	var rf runFlags
	var trace int
	fs.StringVar(&rf.opt.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	fs.Int64Var(&rf.opt.seed, "seed", defaultSeed, fmt.Sprintf("workload seed (claims must also hold on %d)", checkSeed))
	fs.Float64Var(&rf.opt.seconds, "seconds", 8, "repeat episodes until their measured windows add up to this many seconds")
	fs.IntVar(&trace, "trace", 0, "1: traced run reporting the per-layer metrics; 0: end-to-end metrics")
	fs.StringVar(&rf.opt.scale, "scale", "std", "episode sizes: std or smoke")
	fs.StringVar(&rf.out, "out", "", "also write the full result (host facts, samples, exact-repeat values) to this JSON file")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if trace != 0 && trace != 1 {
		return nil, fmt.Errorf("-trace takes 0 or 1, not %d", trace)
	}
	rf.opt.trace = trace == 1
	rf.opt.tmpBase = filepath.Join(buildDir, "tmp")
	if rf.opt.workload == "" {
		return nil, fmt.Errorf("-workload is required (%s, or all)", strings.Join(workloadNames(), ", "))
	}
	return &rf, nil
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i := range workloads {
		names[i] = workloads[i].name
	}
	return names
}

// resultFile is what -out writes and compare reads.
type resultFile struct {
	Host hostFacts   `json:"host"`
	Runs []runResult `json:"runs"`
}

func readResultFile(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(b, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

func writeResultFile(path string, rf *resultFile) error {
	b, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func runMain(args []string) error {
	stdout := os.Stdout
	rf, err := parseRunFlags("bench", args)
	if err != nil {
		return err
	}
	if rf.opt.workload == "all" {
		return runAll(rf, args)
	}
	res, tr, err := runWorkload(rf.opt)
	if err != nil {
		return err
	}
	host := collectHostFacts()
	printResult(stdout, &host, res)
	if rf.opt.trace {
		path := tracePath(rf)
		if err := writeTraceFile(tr, path); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "trace: %s (Chrome trace_event JSON; open in ui.perfetto.dev)\n", path)
	}
	if rf.out != "" {
		if err := writeResultFile(rf.out, &resultFile{Host: host, Runs: []runResult{*res}}); err != nil {
			return err
		}
	}
	if err := printContractLine(stdout, res); err != nil {
		return err
	}
	if !res.Correct {
		return fmt.Errorf("%s: %d failed operations, %d failed output checks", res.Workload, res.Failed, len(res.Violations))
	}
	return nil
}

// tracePath puts the Chrome trace next to -out, or under the build
// directory without one.
func tracePath(rf *runFlags) string {
	if rf.out != "" {
		return strings.TrimSuffix(rf.out, ".json") + ".trace.json"
	}
	return filepath.Join(buildDir, rf.opt.workload+".trace.json")
}

func writeTraceFile(tr *tracer, path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.writeChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runAll runs every workload, each in a fresh process of this same binary.
// With -out, every child writes its result (and trace) beside it and the
// results are merged into it.
func runAll(rf *runFlags, args []string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	merged := &resultFile{Host: collectHostFacts()}
	failed := 0
	for _, name := range workloadNames() {
		// Later flags win, so the child's -workload and -out override ours.
		childArgs := append(append([]string(nil), args...), "-workload", name)
		part := ""
		if rf.out != "" {
			part = strings.TrimSuffix(rf.out, ".json") + "." + name + ".json"
			childArgs = append(childArgs, "-out", part)
		}
		child := exec.Command(self, childArgs...)
		child.Stdout, child.Stderr = os.Stdout, os.Stderr
		if err := child.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
			failed++
		}
		if part != "" {
			if one, err := readResultFile(part); err == nil {
				merged.Runs = append(merged.Runs, one.Runs...)
			}
			os.Remove(part)
		}
		fmt.Println()
	}
	if rf.out != "" {
		if err := writeResultFile(rf.out, merged); err != nil {
			return err
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d workloads failed", failed, len(workloads))
	}
	return nil
}

// printResult prints every metric by name, with unit and direction.
func printResult(w io.Writer, host *hostFacts, res *runResult) {
	wl := findWorkload(res.Workload)
	kind := "end-to-end metrics (tracing off)"
	if res.Trace {
		kind = "per-layer metrics (traced run; end-to-end numbers never come from it)"
	}
	fmt.Fprintf(w, "workload %s  seed %d  scale %s  episodes %d  load workers %d (closed loop)\n",
		res.Workload, res.Seed, res.Scale, res.Episodes, loadWorkers())
	fmt.Fprintf(w, "host     nproc %d  GOMAXPROCS %d  %s  %s  commit %s\n",
		host.NProc, host.GOMAXPROCS, host.GoVersion, host.CPUModel, host.Commit)
	fmt.Fprintf(w, "work     %s; op: %s\n\n%s\n", wl.work, wl.op, kind)
	for _, m := range res.Metrics {
		fmt.Fprintf(w, "  %-40s %16.4f %-6s %-6s", m.Name, m.Value, m.Unit, m.Better)
		if s := m.Episodes; s != nil {
			fmt.Fprintf(w, "  episodes n=%d q1=%.4g q3=%.4g", s.N, s.Q1, s.Q3)
		}
		if s := m.Ops; s != nil {
			fmt.Fprintf(w, "  ops n=%d", s.N)
			if s.TailP > 0 {
				fmt.Fprintf(w, " p%g=%.4g", s.TailP, s.Tail)
			}
		}
		fmt.Fprintln(w)
	}
	if len(res.Spans) > 0 {
		fmt.Fprintf(w, "\nspans (recorded from the harness around each call into a layer; self = span minus children)\n")
		fmt.Fprintf(w, "  %-32s %8s %12s %12s %12s %s\n", "name", "count", "total ms", "self ms", "p50 us", "tail")
		for _, s := range res.Spans {
			tail := ""
			if s.TailP > 0 {
				tail = fmt.Sprintf("p%g=%.1f us", s.TailP, s.TailUs)
			}
			fmt.Fprintf(w, "  %-32s %8d %12.2f %12.2f %12.1f %s\n", s.Name, s.Count, s.TotalMs, s.SelfMs, s.P50Us, tail)
		}
		fmt.Fprintf(w, "counts  %v\n", res.Counts)
	}
	fmt.Fprintf(w, "\nexact-repeat values\n")
	for _, x := range res.Exact {
		fmt.Fprintf(w, "  %-40s %s\n", x.Name, x.Value)
	}
	fmt.Fprintf(w, "\noperations attempted %d  failed %d\n", res.Attempted, res.Failed)
	for _, v := range res.Violations {
		fmt.Fprintf(w, "FAILED CHECK: %s\n", v)
	}
	if len(res.Violations) == 0 {
		fmt.Fprintln(w, "output checks passed")
	}
}

// printContractLine prints the one JSON object the benchmark contract asks
// for as the last line of standard output.
func printContractLine(w io.Writer, res *runResult) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, make(map[string]value)}
	for _, m := range res.Metrics {
		line.Metrics[m.Name] = value{m.Value, m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}
