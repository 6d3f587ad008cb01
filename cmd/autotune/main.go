// Command autotune runs the ML-based autotuning pipeline (§5.3) over a
// fleet telemetry trace: heuristic baseline, GP-Bandit search against the
// fast far memory model, and the qualification gate that decides whether
// to deploy the winner.
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"sdfm/internal/core"
	"sdfm/internal/fleet"
	"sdfm/internal/model"
	"sdfm/internal/obs"
	"sdfm/internal/tracestore"
	"sdfm/internal/tuner"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("autotune: ")
	var (
		in         = flag.String("trace", "", "trace store file from tracegen (empty: synthesize one)")
		iterations = flag.Int("iterations", 15, "GP-bandit iterations")
		seed       = flag.Int64("seed", 1, "random seed")
		metricsOut = flag.String("metricsout", "", "write Prometheus metrics for the tuning run to this file")
		traceOut   = flag.String("traceout", "", "write a Chrome trace_event JSON of the search timeline to this file")
	)
	flag.Parse()

	var multi *obs.Multi
	var observer *obs.Observer
	if *metricsOut != "" || *traceOut != "" {
		multi = obs.NewMulti(obs.Label{Key: "run", Value: "autotune"})
		observer = multi.Observer("autotune")
	}

	var (
		ct      *model.CompiledTrace
		entries int
	)
	if *in != "" {
		h, err := tracestore.Open(*in)
		if err != nil {
			log.Fatal(err)
		}
		// The file compiles out-of-core: chunks stream straight into the
		// replay columns, so the trace never needs to fit in memory.
		ct, err = h.Compile()
		if err != nil {
			log.Fatal(err)
		}
		entries = h.NumEntries()
		fmt.Printf("trace: %s, %d entries, %d jobs\n", *in, entries, len(h.Jobs()))
		if sk := h.Skipped(); sk.Chunks > 0 || sk.Entries > 0 {
			fmt.Printf("damage skipped: %d chunks, %d entries (replay sees the holes as gap intervals)\n",
				sk.Chunks, sk.Entries)
		}
		fmt.Println()
		h.Close()
	} else {
		fmt.Println("no -trace given; synthesizing a 24h fleet trace")
		trace, err := fleet.Generate(fleet.Config{
			Clusters: 4, MachinesPerCluster: 10, JobsPerMachine: 6,
			Duration: 24 * time.Hour, Seed: *seed,
		})
		if err != nil {
			log.Fatal(err)
		}
		ct = model.Compile(trace)
		fmt.Printf("trace: %d entries, %d jobs\n\n", trace.Len(), len(trace.Jobs()))
	}

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

	dep, err := tuner.QualifyAndDeploy(res.Best.Params, heur.Best.Params, obj, core.DefaultSLO)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ndeployment: accepted=%v chosen=K=%.1f,S=%s (%s)\n",
		dep.Accepted, dep.Chosen.K, dep.Chosen.S, dep.Stages[0].Reason)

	if err := multi.WriteFiles(*metricsOut, *traceOut); err != nil {
		log.Fatal(err)
	}
}
