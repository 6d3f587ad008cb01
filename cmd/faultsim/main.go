// Command faultsim runs the page-accurate fleet simulation twice — once
// fault-free, once under a named fault plan — and reports how much of the
// system's far-memory value survives the faults: coverage retained, SLO
// violations, circuit-breaker trips, watchdog restarts, telemetry damage,
// and whether a staged parameter rollout health-checked against the
// damaged telemetry rolls back mid-deployment.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"sdfm/internal/cluster"
	"sdfm/internal/core"
	"sdfm/internal/fault"
	"sdfm/internal/model"
	"sdfm/internal/node"
	"sdfm/internal/obs"
	"sdfm/internal/stats"
	"sdfm/internal/telemetry"
	"sdfm/internal/tracestore"
	"sdfm/internal/tuner"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("faultsim: ")
	var (
		machines   = flag.Int("machines", 3, "number of machines")
		jobs       = flag.Int("jobs", 9, "total jobs to schedule")
		hours      = flag.Float64("hours", 6, "simulated hours")
		k          = flag.Float64("k", 75, "K percentile parameter")
		warmup     = flag.Duration("s", 5*time.Minute, "S warmup parameter")
		seed       = flag.Int64("seed", 1, "random seed")
		planPath   = flag.String("plan", "", "fault plan JSON (default: the built-in default plan)")
		writePlan  = flag.String("writeplan", "", "write the default fault plan JSON to this path and exit")
		saveTrace  = flag.String("savetrace", "", "write the baseline and faulted telemetry as <prefix>-{baseline,faulted}.trace store files")
		metricsOut = flag.String("metricsout", "", "write Prometheus metrics for both runs (labelled run=baseline / run=<plan>) to this file")
		traceOut   = flag.String("traceout", "", "write a Chrome trace_event JSON file covering both runs")
	)
	flag.Parse()
	duration := time.Duration(*hours * float64(time.Hour))

	plan := fault.DefaultPlan(*seed, duration)
	if *writePlan != "" {
		f, err := os.Create(*writePlan)
		if err != nil {
			log.Fatal(err)
		}
		if err := plan.Save(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote default fault plan to %s\n", *writePlan)
		return
	}
	if *planPath != "" {
		f, err := os.Open(*planPath)
		if err != nil {
			log.Fatal(err)
		}
		plan, err = fault.LoadPlan(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
	}
	// LoadPlan validates, but keep the contract explicit for both the
	// loaded and the built-in path: reject a bad plan before burning two
	// fleet runs on it.
	if err := plan.Validate(); err != nil {
		log.Fatal(err)
	}

	params := core.Params{K: *k, S: *warmup}
	breaker := node.BreakerConfig{Enabled: true, TripViolations: 2, Cooldown: time.Hour}

	fmt.Printf("plan %q: %d events over %v\n\n", plan.Name, len(plan.Events), duration)

	// Each run gets its own hub, labelled run=<name>, so both exports can
	// merge into one file with distinguishable series (cluster and machine
	// names stay identical across runs — they key telemetry JobKeys).
	var baseObs, faultObs *obs.Multi
	if *metricsOut != "" || *traceOut != "" {
		baseObs = obs.NewMulti(obs.Label{Key: "run", Value: "baseline"})
		faultObs = obs.NewMulti(obs.Label{Key: "run", Value: plan.Name})
	}

	base, err := runFleet("baseline", nil, breaker, params, *machines, *jobs, *seed, duration, baseObs)
	if err != nil {
		log.Fatal(err)
	}
	faulted, err := runFleet(plan.Name, plan, breaker, params, *machines, *jobs, *seed, duration, faultObs)
	if err != nil {
		log.Fatal(err)
	}
	if err := obs.Merge(baseObs, faultObs).WriteFiles(*metricsOut, *traceOut); err != nil {
		log.Fatal(err)
	}

	// Degraded-mode telemetry path: damage the faulted trace at rest the
	// way the plan's corruption windows would, then scrub before replay.
	dmg := fault.ApplyToTrace(plan, faulted.trace)
	scrubbed := faulted.trace.Scrub()

	if *saveTrace != "" {
		for _, tr := range []struct {
			suffix string
			trace  *telemetry.Trace
		}{{"baseline", base.trace}, {"faulted", faulted.trace}} {
			path := *saveTrace + "-" + tr.suffix + ".trace"
			if err := writeStore(path, tr.trace); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("wrote %s (%d entries, store format)\n", path, tr.trace.Len())
		}
	}

	mc := model.Config{Params: params, SLO: core.DefaultSLO}
	baseModel, err := model.Run(base.trace, mc)
	if err != nil {
		log.Fatal(err)
	}
	faultCT := model.Compile(faulted.trace)
	faultModel, err := faultCT.Run(mc)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("== live simulation ==\n")
	fmt.Printf("%-28s %12s %12s\n", "", "baseline", "faulted")
	fmt.Printf("%-28s %11.1f%% %11.1f%%\n", "coverage (median machine)", base.coverage*100, faulted.coverage*100)
	fmt.Printf("%-28s %11.4f%% %11.4f%%\n", "promotion p98 (%WSS/min)", base.p98*100, faulted.p98*100)
	fmt.Printf("%-28s %12d %12d\n", "SLO-violating intervals", base.violations, faulted.violations)
	fmt.Printf("%-28s %12d %12d\n", "evictions", base.evictions, faulted.evictions)
	fs, bs := faulted.faults, base.faults
	fmt.Printf("%-28s %12d %12d\n", "machine crashes", bs.Crashes, fs.Crashes)
	fmt.Printf("%-28s %12d %12d\n", "watchdog restarts", bs.WatchdogRestarts, fs.WatchdogRestarts)
	fmt.Printf("%-28s %12d %12d\n", "breaker trips", bs.BreakerTrips, fs.BreakerTrips)
	fmt.Printf("%-28s %12d %12d\n", "breaker backoffs", bs.BackoffEvents, fs.BackoffEvents)
	fmt.Printf("%-28s %12d %12d\n", "churn kills", bs.ChurnKills, fs.ChurnKills)
	fmt.Printf("%-28s %12d %12d\n", "injected store errors", int(bs.InjectedErrors), int(fs.InjectedErrors))
	fmt.Printf("%-28s %12d %12d\n", "dropped telemetry exports", bs.DroppedExports, fs.DroppedExports)

	fmt.Printf("\n== telemetry pipeline ==\n")
	fmt.Printf("at-rest damage: %d dropped, %d corrupted; scrub removed %d entries\n",
		dmg.Dropped, dmg.Corrupted, scrubbed)
	fmt.Printf("model replay baseline: %s\n", baseModel)
	fmt.Printf("model replay faulted:  %s\n", faultModel)
	if baseModel.Coverage > 0 {
		fmt.Printf("modelled coverage retained under faults: %.1f%%\n",
			faultModel.Coverage/baseModel.Coverage*100)
	}

	// Staged rollout of an aggressive candidate, health-checked per stage
	// against the damaged telemetry: the rollout must catch the SLO breach
	// and roll back to the incumbent mid-deployment.
	candidate := core.Params{K: 50, S: 0}
	stages := []tuner.RolloutStage{
		{Name: "canary", Fraction: 0.25},
		{Name: "half", Fraction: 0.50},
		{Name: "fleet", Fraction: 1.00},
	}
	obj := tuner.CompiledStageObjective(faultCT, model.Config{SLO: core.DefaultSLO}, len(stages))
	rep, err := tuner.StagedRollout(candidate, params, obj, stages, core.DefaultSLO)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n== staged rollout (candidate K=%.0f S=%v vs incumbent K=%.0f S=%v) ==\n",
		candidate.K, candidate.S, params.K, params.S)
	for _, sr := range rep.Stages {
		status := "ok"
		if !sr.Healthy {
			status = "ROLLED BACK"
		}
		fmt.Printf("stage %-8s (%4.0f%% of jobs): %-11s %s\n",
			sr.Stage.Name, sr.Stage.Fraction*100, status, sr.Reason)
	}
	if rep.Accepted {
		fmt.Printf("rollout accepted: fleet now runs K=%.0f S=%v\n", rep.Chosen.K, rep.Chosen.S)
	} else {
		fmt.Printf("rollout rolled back at %q: fleet keeps K=%.0f S=%v\n",
			rep.RolledBackAt, rep.Chosen.K, rep.Chosen.S)
	}
}

// writeStore saves a trace as a chunked columnar store file.
func writeStore(path string, trace *telemetry.Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tracestore.WriteTrace(f, trace); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// fleetRun is one cluster simulation's harvest.
type fleetRun struct {
	coverage   float64
	p98        float64
	violations int
	evictions  int
	faults     node.FaultStats
	trace      *telemetry.Trace
}

func runFleet(label string, plan *fault.Plan, breaker node.BreakerConfig, params core.Params,
	machines, jobs int, seed int64, duration time.Duration, hub *obs.Multi) (fleetRun, error) {

	trace := telemetry.NewTrace()
	c, err := cluster.New(cluster.Config{
		Name:           "faultsim",
		Machines:       machines,
		DRAMPerMachine: 4 << 30,
		Mode:           node.ModeProactive,
		Params:         params,
		SLO:            core.DefaultSLO,
		CollectSamples: true,
		Seed:           seed,
		Collector:      telemetry.NewCollector(trace),
		Faults:         plan,
		Breaker:        breaker,
		Obs:            hub,
	})
	if err != nil {
		return fleetRun{}, err
	}
	if err := c.Populate(jobs, nil, seed); err != nil {
		return fleetRun{}, err
	}
	start := time.Now()
	if err := c.Run(duration); err != nil {
		return fleetRun{}, err
	}
	fmt.Printf("ran %-12s %v across %d machines/%d jobs in %v\n",
		label, duration, machines, jobs, time.Since(start).Round(time.Millisecond))

	out := fleetRun{trace: trace, faults: c.FaultStats(), evictions: c.Evictions()}
	out.coverage = c.CoverageSummary().Median
	var rates []float64
	slo := core.DefaultSLO.TargetRatePerMin
	for _, m := range c.Machines() {
		for _, j := range m.Jobs() {
			for _, r := range j.RateSamples() {
				rates = append(rates, r)
				if r > slo {
					out.violations++
				}
			}
		}
	}
	if len(rates) > 0 {
		out.p98 = stats.Percentile(rates, 98)
	}
	return out, nil
}
