// Autotuning walkthrough (paper §5.3).
//
// The example reproduces the paper's tuning pipeline end to end:
//
//  1. synthesize a two-day fleet telemetry trace,
//
//  2. evaluate the conservative hand-tuned candidates (the pre-ML
//     baseline, months of A/B testing compressed into three evaluations),
//
//  3. run the GP-Bandit loop against the fast far memory model,
//
//  4. qualify the winner on a holdout slice and decide deploy/rollback.
//
//     go run ./examples/autotuning
package main

import (
	"fmt"
	"log"
	"time"

	"sdfm/internal/core"
	"sdfm/internal/fleet"
	"sdfm/internal/model"
	"sdfm/internal/tuner"
)

func main() {
	log.SetFlags(0)

	fmt.Println("generating a 2-day fleet trace (3 clusters x 10 machines x 6 job slots)...")
	trace, err := fleet.Generate(fleet.Config{
		Clusters: 3, MachinesPerCluster: 10, JobsPerMachine: 6,
		Duration: 48 * time.Hour, Seed: 11,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Train on day 1, qualify on day 2 — the staged deployment of §5.3.
	// The trace is compiled once; each day is a slice of the compiled form.
	const day = int64(24 * time.Hour / time.Second)
	ct := model.Compile(trace)
	train := tuner.CompiledObjective(ct.Slice(0, day, nil), core.DefaultSLO)
	holdout := tuner.CompiledObjective(ct.Slice(day, 2*day, nil), core.DefaultSLO)

	heur, err := tuner.HeuristicTune(train, tuner.DefaultHeuristicCandidates, core.DefaultSLO)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nheuristic baseline (educated guesses):\n")
	for _, o := range heur.History {
		fmt.Printf("  K=%5.1f S=%-8s -> coverage %5.1f%%  p98 %.4f%%/min  feasible=%v\n",
			o.Params.K, o.Params.S, o.Result.Coverage*100, o.Result.P98Rate*100, o.Feasible)
	}
	fmt.Printf("  winner: K=%.1f S=%s with %.1f%% coverage\n",
		heur.Best.Params.K, heur.Best.Params.S, heur.Best.Result.Coverage*100)

	fmt.Println("\nGP-Bandit exploration (fast model as oracle):")
	start := time.Now()
	res, err := tuner.Autotune(train, tuner.Config{
		SLO: core.DefaultSLO, Seed: 11, Iterations: 15,
	})
	if err != nil {
		log.Fatal(err)
	}
	for i, o := range res.History {
		mark := "  "
		if o.Params == res.Best.Params {
			mark = "->"
		}
		fmt.Printf(" %s %2d K=%5.1f S=%-8s coverage %5.1f%%  p98 %.4f%%/min  feasible=%v\n",
			mark, i, o.Params.K, o.Params.S.Round(time.Minute),
			o.Result.Coverage*100, o.Result.P98Rate*100, o.Feasible)
	}
	fmt.Printf("explored %d configurations in %v\n",
		len(res.History), time.Since(start).Round(time.Millisecond))
	if heur.Best.Result.Coverage > 0 {
		fmt.Printf("coverage improvement over heuristic: %+.0f%% (paper: ~+30%%)\n",
			(res.Best.Result.Coverage/heur.Best.Result.Coverage-1)*100)
	}

	dep, err := tuner.QualifyAndDeploy(res.Best.Params, heur.Best.Params, holdout, core.DefaultSLO)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nqualification on holdout day: %s\n", dep.Stages[0].Reason)
	if dep.Accepted {
		fmt.Printf("deployed: K=%.1f S=%s\n", dep.Chosen.K, dep.Chosen.S)
	} else {
		fmt.Printf("rolled back to incumbent: K=%.1f S=%s\n", dep.Chosen.K, dep.Chosen.S)
	}
}
