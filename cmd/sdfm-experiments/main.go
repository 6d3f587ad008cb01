// Command sdfm-experiments regenerates every figure of the paper's
// evaluation and prints the corresponding rows.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"sdfm/internal/core"
	"sdfm/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sdfm-experiments: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Print(err)
		if errors.As(err, new(usageError)) {
			os.Exit(2) // a bad flag value, as the flag package exits on a bad flag
		}
		os.Exit(1)
	}
}

// usageError is a flag value the command cannot run with.
type usageError string

func (e usageError) Error() string { return string(e) }

type renderer interface{ Render() string }

// experiment is one figure or table of the evaluation, by its -only name.
type experiment struct {
	name string
	run  func(scale experiments.Scale, seed int64) (renderer, error)
}

var all = []experiment{
	{"fig1", func(s experiments.Scale, seed int64) (renderer, error) {
		return experiments.Fig1ColdMemoryVsThreshold(s, seed)
	}},
	{"fig2", func(s experiments.Scale, seed int64) (renderer, error) {
		return experiments.Fig2ColdMemoryAcrossMachines(s, seed)
	}},
	{"fig3", func(s experiments.Scale, seed int64) (renderer, error) {
		return experiments.Fig3ColdMemoryAcrossJobs(s, seed)
	}},
	{"fig5", func(s experiments.Scale, seed int64) (renderer, error) {
		return experiments.Fig5CoverageTimeline(s, seed)
	}},
	{"fig6", func(s experiments.Scale, seed int64) (renderer, error) {
		return experiments.Fig6CoverageAcrossMachines(s, seed, core.Params{K: 95, S: core.DefaultParams.S})
	}},
	{"fig7", func(s experiments.Scale, seed int64) (renderer, error) {
		return experiments.Fig7PromotionRateCDF(s, seed)
	}},
	{"fig8", func(s experiments.Scale, seed int64) (renderer, error) {
		return experiments.Fig8CPUOverhead(s, seed)
	}},
	{"fig9", func(s experiments.Scale, seed int64) (renderer, error) {
		return experiments.Fig9CompressionCharacteristics(s, seed)
	}},
	{"fig10", func(s experiments.Scale, seed int64) (renderer, error) {
		return experiments.Fig10BigtableAB(s, seed)
	}},
	{"h1", func(s experiments.Scale, seed int64) (renderer, error) {
		return experiments.H1TCOSavings(s, seed, 3.0)
	}},
	{"h2", func(s experiments.Scale, seed int64) (renderer, error) {
		return experiments.H2AutotunerVsHeuristic(s, seed)
	}},
	{"a1", func(s experiments.Scale, seed int64) (renderer, error) {
		return experiments.A1ReactiveVsProactive(s, seed)
	}},
	{"a3", func(experiments.Scale, int64) (renderer, error) {
		return experiments.A3KstaledOverhead(), nil
	}},
}

// names lists the experiments' -only names, comma separated.
func names() string {
	ns := make([]string, len(all))
	for i, e := range all {
		ns[i] = e.name
	}
	return strings.Join(ns, ", ")
}

// run parses args and prints every experiment, or the one -only names, to
// stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("sdfm-experiments", flag.ExitOnError)
	scaleFlag := fs.String("scale", "small", "experiment scale: small, medium, large")
	seed := fs.Int64("seed", 1, "random seed")
	only := fs.String("only", "", "run a single experiment: "+names())
	fs.Parse(args)

	scale, ok := map[string]experiments.Scale{
		"small": experiments.ScaleSmall, "medium": experiments.ScaleMedium, "large": experiments.ScaleLarge,
	}[*scaleFlag]
	if !ok {
		return usageError(fmt.Sprintf("unknown scale %q; valid: small, medium, large", *scaleFlag))
	}
	var todo []experiment
	for _, e := range all {
		if *only == "" || *only == e.name {
			todo = append(todo, e)
		}
	}
	if len(todo) == 0 {
		return usageError(fmt.Sprintf("unknown experiment %q; valid: %s", *only, names()))
	}
	for _, e := range todo {
		r, err := e.run(scale, *seed)
		if err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		fmt.Fprintln(stdout, r.Render())
	}
	return nil
}
