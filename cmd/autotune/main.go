// Command autotune runs the ML-based autotuning pipeline (§5.3) over a
// fleet telemetry trace file: heuristic baseline, GP-Bandit search against
// the fast far memory model, then a staged rollout of the winner through
// the deployment rings, each ring health-checked against its own slice of
// the trace, with the heuristic winner as the incumbent a rollback
// restores.
//
//	go run ./cmd/tracegen -o fleet.trace
//	go run ./cmd/autotune -trace fleet.trace
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"sdfm/internal/core"
	"sdfm/internal/model"
	"sdfm/internal/obs"
	"sdfm/internal/tracestore"
	"sdfm/internal/tuner"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("autotune: ")
	var (
		in         = flag.String("trace", "", "trace store file from tracegen (required)")
		iterations = flag.Int("iterations", 15, "GP-bandit iterations")
		seed       = flag.Int64("seed", 1, "random seed")
		metricsOut = flag.String("metricsout", "", "write Prometheus metrics for the tuning run to this file")
		traceOut   = flag.String("traceout", "", "write a Chrome trace_event JSON of the search timeline to this file")
	)
	flag.Parse()
	if *in == "" {
		fmt.Fprintln(os.Stderr, "autotune: -trace is required (tracegen writes one; sdfm-experiments -only h2 tunes a synthesized fleet)")
		flag.Usage()
		os.Exit(2)
	}

	var multi *obs.Multi
	var observer *obs.Observer
	if *metricsOut != "" || *traceOut != "" {
		multi = obs.NewMulti(obs.Label{Key: "run", Value: "autotune"})
		observer = multi.Observer("autotune")
	}

	h, err := tracestore.Open(*in)
	if err != nil {
		log.Fatal(err)
	}
	// The file compiles out-of-core: chunks stream straight into the
	// replay columns, so the trace never needs to fit in memory.
	ct, err := h.Compile()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trace: %s, %d entries, %d jobs\n", *in, h.NumEntries(), len(h.Jobs()))
	if sk := h.Skipped(); sk.Chunks > 0 || sk.Entries > 0 {
		fmt.Printf("damage skipped: %d chunks, %d entries (replay sees the holes as gap intervals)\n",
			sk.Chunks, sk.Entries)
	}
	fmt.Println()
	h.Close()

	obj := tuner.CompiledObjective(ct, core.DefaultSLO)

	heur, err := tuner.HeuristicTune(obj, tuner.DefaultHeuristicCandidates, core.DefaultSLO)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("heuristic baseline: K=%.1f S=%s  coverage=%.1f%%  p98=%.4f%%/min\n",
		heur.Best.Params.K, heur.Best.Params.S,
		heur.Best.Result.Coverage*100, heur.Best.Result.P98Rate*100)

	start := time.Now()
	res, err := tuner.Autotune(obj, tuner.Config{
		SLO: core.DefaultSLO, Seed: *seed, Iterations: *iterations, Obs: observer,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("GP-bandit (%d evals, %v): K=%.1f S=%s  coverage=%.1f%%  p98=%.4f%%/min\n",
		len(res.History), time.Since(start).Round(time.Millisecond),
		res.Best.Params.K, res.Best.Params.S,
		res.Best.Result.Coverage*100, res.Best.Result.P98Rate*100)
	if heur.Best.Result.Coverage > 0 {
		fmt.Printf("improvement over heuristic: %+.0f%%\n\n",
			(res.Best.Result.Coverage/heur.Best.Result.Coverage-1)*100)
	}

	fmt.Println("exploration history:")
	for i, o := range res.History {
		mark := " "
		if o.Params == res.Best.Params {
			mark = "*"
		}
		fmt.Printf(" %s %2d  K=%5.1f S=%-10s coverage=%5.1f%%  p98=%.4f%%/min feasible=%v\n",
			mark, i, o.Params.K, o.Params.S.Round(time.Minute),
			o.Result.Coverage*100, o.Result.P98Rate*100, o.Feasible)
	}

	// Push the winner through the deployment rings; ring i judges the
	// jobs hashed into its fraction over the i-th slice of the timeline.
	stages := tuner.DefaultRolloutStages
	stageObj := tuner.CompiledStageObjective(ct, model.Config{SLO: core.DefaultSLO}, len(stages))
	rollout, err := tuner.StagedRollout(res.Best.Params, heur.Best.Params, stageObj, stages, core.DefaultSLO)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nstaged rollout of the winner:")
	for _, sr := range rollout.Stages {
		status := "ok"
		if !sr.Healthy {
			status = "ROLLED BACK"
		}
		fmt.Printf("  stage %-8s (%4.0f%% of jobs): %-11s %s\n",
			sr.Stage.Name, sr.Stage.Fraction*100, status, sr.Reason)
	}
	if rollout.Accepted {
		fmt.Printf("rollout accepted: fleet now runs K=%.1f S=%s\n", rollout.Chosen.K, rollout.Chosen.S)
	} else {
		fmt.Printf("rollout rolled back at %q: fleet keeps K=%.1f S=%s\n",
			rollout.RolledBackAt, rollout.Chosen.K, rollout.Chosen.S)
	}

	if err := multi.WriteFiles(*metricsOut, *traceOut); err != nil {
		log.Fatal(err)
	}
}
