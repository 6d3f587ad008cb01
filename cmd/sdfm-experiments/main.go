// Command sdfm-experiments regenerates every figure of the paper's
// evaluation and prints the corresponding rows.
package main

import (
	"flag"
	"fmt"
	"log"

	"sdfm/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sdfm-experiments: ")
	scaleFlag := flag.String("scale", "small", "experiment scale: small, medium, large")
	seed := flag.Int64("seed", 1, "random seed")
	only := flag.String("only", "", "run a single experiment (fig1..fig10, h1, h2, a1, a3)")
	flag.Parse()

	var scale experiments.Scale
	switch *scaleFlag {
	case "small":
		scale = experiments.ScaleSmall
	case "medium":
		scale = experiments.ScaleMedium
	case "large":
		scale = experiments.ScaleLarge
	default:
		log.Fatalf("unknown scale %q", *scaleFlag)
	}

	type renderer interface{ Render() string }
	run := func(name string, fn func() (renderer, error)) {
		if *only != "" && *only != name {
			return
		}
		r, err := fn()
		if err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		fmt.Println(r.Render())
	}

	run("fig1", func() (renderer, error) {
		return experiments.Fig1ColdMemoryVsThreshold(scale, *seed)
	})
	run("fig2", func() (renderer, error) {
		return experiments.Fig2ColdMemoryAcrossMachines(scale, *seed)
	})
	run("fig3", func() (renderer, error) {
		return experiments.Fig3ColdMemoryAcrossJobs(scale, *seed)
	})
	run("fig5", func() (renderer, error) {
		return experiments.Fig5CoverageTimeline(scale, *seed)
	})
	run("fig6", func() (renderer, error) {
		return experiments.Fig6CoverageAcrossMachines(scale, *seed, coreParams())
	})
	run("fig7", func() (renderer, error) {
		return experiments.Fig7PromotionRateCDF(scale, *seed)
	})
	run("fig8", func() (renderer, error) {
		return experiments.Fig8CPUOverhead(scale, *seed)
	})
	run("fig9", func() (renderer, error) {
		return experiments.Fig9CompressionCharacteristics(scale, *seed)
	})
	run("fig10", func() (renderer, error) {
		return experiments.Fig10BigtableAB(scale, *seed)
	})
	run("h1", func() (renderer, error) {
		return experiments.H1TCOSavings(scale, *seed, 3.0)
	})
	run("h2", func() (renderer, error) {
		return experiments.H2AutotunerVsHeuristic(scale, *seed)
	})
	run("a1", func() (renderer, error) {
		return experiments.A1ReactiveVsProactive(scale, *seed)
	})
	run("a3", func() (renderer, error) {
		r := experiments.A3KstaledOverhead()
		return r, nil
	})
}
