// Command fleetsim runs the page-accurate far-memory fleet simulation and
// reports the machine-level statistics of §6: coverage, promotion rates,
// CPU overheads, compression, and the eviction SLO. With -plan it runs the
// fleet fault-free and then under a fault plan, and reports what survives
// the faults: coverage, SLO violations, breaker trips, watchdog restarts,
// telemetry damage, and whether a staged rollout health-checked against
// the damaged telemetry rolls back. With -demographics it adds each job's
// time-since-last-access table, kstaled's per-job histograms as procfs
// would show them; -mode disabled observes without reclaiming.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"os"
	"time"

	"sdfm/internal/cluster"
	"sdfm/internal/core"
	"sdfm/internal/fault"
	"sdfm/internal/kstaled"
	"sdfm/internal/model"
	"sdfm/internal/node"
	"sdfm/internal/obs"
	"sdfm/internal/stats"
	"sdfm/internal/telemetry"
	"sdfm/internal/tracestore"
	"sdfm/internal/tuner"
	"sdfm/internal/zswap"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fleetsim: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run parses args, runs the simulation and writes its report to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("fleetsim", flag.ExitOnError)
	var (
		machines     = fs.Int("machines", 4, "number of machines")
		jobs         = fs.Int("jobs", 12, "total jobs to schedule")
		hours        = fs.Float64("hours", 8, "simulated hours")
		k            = fs.Float64("k", 95, "K percentile parameter")
		warmup       = fs.Duration("s", 10*time.Minute, "S warmup parameter")
		seed         = fs.Int64("seed", 1, "random seed")
		mode         = fs.String("mode", "proactive", "far-memory mode: proactive, reactive, disabled")
		serve        = fs.String("serve", "", "after the run, serve node-agent status pages at this address (e.g. :8080)")
		metricsOut   = fs.String("metricsout", "", "write Prometheus metrics to this file at exit (under -plan, labelled run=baseline / run=<plan>)")
		traceOut     = fs.String("traceout", "", "write a Chrome trace_event JSON file at exit (open in chrome://tracing or Perfetto)")
		planPath     = fs.String("plan", "", "also run the fleet under this fault plan JSON and report baseline vs faulted")
		writePlan    = fs.String("writeplan", "", "write the default fault plan JSON for -seed and -hours to this path and exit")
		saveTrace    = fs.String("savetrace", "", "write the telemetry as <prefix>-baseline.trace (and <prefix>-faulted.trace under -plan) store files")
		demographics = fs.Bool("demographics", false, "also print each job's time-since-last-access table (under -plan, the baseline run's)")
	)
	fs.Parse(args)
	// "Not inside" rather than "outside", so that NaN is refused too.
	if !(*hours > 0 && *hours*float64(time.Hour) < math.MaxInt64) {
		return fmt.Errorf("-hours must be positive and fit a time.Duration, not %v", *hours)
	}
	if *machines <= 0 || *jobs <= 0 {
		return fmt.Errorf("-machines and -jobs must be positive, not %d and %d", *machines, *jobs)
	}
	duration := time.Duration(*hours * float64(time.Hour))

	if *writePlan != "" {
		if err := writeFile(*writePlan, fault.DefaultPlan(*seed, duration).Save); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote default fault plan to %s\n", *writePlan)
		return nil
	}
	m, ok := map[string]node.Mode{"proactive": node.ModeProactive, "reactive": node.ModeReactive, "disabled": node.ModeDisabled}[*mode]
	if !ok {
		return fmt.Errorf("unknown mode %q", *mode)
	}
	cfg := cluster.Config{Name: "fleetsim", Machines: *machines, Mode: m, Params: core.Params{K: *k, S: *warmup}, Seed: *seed}
	out := outputs{metrics: *metricsOut, trace: *traceOut, savePrefix: *saveTrace}
	base, err := report(stdout, cfg, *jobs, duration, *planPath, out)
	if err != nil {
		return err
	}

	if *demographics {
		fmt.Fprintln(stdout)
		if err := base.trace.WriteDemographics(stdout); err != nil {
			return err
		}
	}
	if *serve != "" {
		mux := http.NewServeMux()
		for _, machine := range base.machines {
			mux.Handle("/"+machine.Name()+"/", http.StripPrefix("/"+machine.Name(), node.StatusHandler(machine)))
		}
		fmt.Fprintf(stdout, "\nserving node-agent status at http://%s/<machine>/ (and /<machine>/text)\n", *serve)
		return http.ListenAndServe(*serve, mux)
	}
	return nil
}

// outputs names the files a run writes besides its report; empty skips.
type outputs struct{ metrics, trace, savePrefix string }

// hub returns an obs hub labelled run=<run>, or nil without obs exports.
func (o outputs) hub(run string) *obs.Multi {
	if o.metrics == "" && o.trace == "" {
		return nil
	}
	return obs.NewMulti(obs.Label{Key: "run", Value: run})
}

// saveTraces writes the baseline trace, then the faulted one, as
// <prefix>-{baseline,faulted}.trace store files, if o has a prefix.
func (o outputs) saveTraces(w io.Writer, traces ...*telemetry.Trace) error {
	if o.savePrefix == "" {
		return nil
	}
	for i, trace := range traces {
		path := o.savePrefix + "-" + [...]string{"baseline", "faulted"}[i] + ".trace"
		if err := writeFile(path, func(f io.Writer) error { return tracestore.WriteTrace(f, trace) }); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s (%d entries, store format)\n", path, trace.Len())
	}
	return nil
}

// writeFile creates path and fills it with write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

// report runs the fleet and prints its report: reportPlan's under a fault
// plan, else the §6 statistics.
func report(w io.Writer, cfg cluster.Config, jobs int, duration time.Duration, planPath string, out outputs) (*fleetRun, error) {
	if planPath != "" {
		return reportPlan(w, cfg, jobs, duration, planPath, out)
	}
	cfg.Obs = out.hub("fleetsim")
	r, err := runFleet(cfg, jobs, duration)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "simulated %v across %d machines/%d jobs in %v\n\n",
		duration, cfg.Machines, jobs, r.elapsed.Round(time.Millisecond))
	fmt.Fprintf(w, "cold memory per machine: median %.1f%% (q1 %.1f%%, q3 %.1f%%)\n"+
		"coverage per machine:    median %.1f%% (q1 %.1f%%, q3 %.1f%%)\n",
		r.coldFrac.Median*100, r.coldFrac.Q1*100, r.coldFrac.Q3*100, r.coverage.Median*100, r.coverage.Q1*100, r.coverage.Q3*100)
	fmt.Fprintf(w, "evictions: %d (%.4f per job)\n\nDRAM saved: %.1f MiB (pool footprint %.1f MiB)\n",
		r.evictions, r.evictionsPerJob, float64(r.saved)/(1<<20), float64(r.footprint)/(1<<20))
	if len(r.ratios) > 0 {
		fmt.Fprintf(w, "compression ratio: median %.2fx\n", stats.Percentile(r.ratios, 50))
	}
	fmt.Fprintf(w, "CPU overhead p98: compression %.4f%%, decompression %.4f%% of job CPU\n",
		stats.Percentile(r.comp, 98)*100, stats.Percentile(r.decomp, 98)*100)
	writeSLO(w, "", r)

	if err := r.hub.WriteFiles(out.metrics, out.trace); err != nil {
		return nil, err
	}
	if out.metrics != "" {
		fmt.Fprintf(w, "wrote metrics to %s\n", out.metrics)
	}
	if out.trace != "" {
		fmt.Fprintf(w, "wrote trace to %s\n", out.trace)
	}
	return r, out.saveTraces(w, r.trace)
}

// reportPlan runs the fleet fault-free and then under the plan at
// planPath, both behind the promotion-SLO circuit breaker, and prints the
// two live runs side by side, the damaged telemetry's model replay, and a
// staged rollout health-checked against it. It returns the baseline run.
func reportPlan(w io.Writer, cfg cluster.Config, jobs int, duration time.Duration,
	planPath string, out outputs) (*fleetRun, error) {

	data, err := os.ReadFile(planPath)
	if err != nil {
		return nil, err
	}
	plan, err := fault.LoadPlan(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("plan %s: %w", planPath, err)
	}
	cfg.Breaker = node.BreakerConfig{Enabled: true, TripViolations: 2, Cooldown: time.Hour}
	fmt.Fprintf(w, "plan %q: %d events over %v\n\n", plan.Name, len(plan.Events), duration)

	// Each run gets its own hub, labelled run=<name>, so both exports can
	// merge into one file with distinguishable series (cluster and machine
	// names stay identical across runs — they key telemetry JobKeys).
	var runs [2]*fleetRun
	for i, p := range []*fault.Plan{nil, plan} {
		label := [...]string{"baseline", plan.Name}[i]
		cfg.Faults, cfg.Obs = p, out.hub(label)
		if runs[i], err = runFleet(cfg, jobs, duration); err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "ran %-12s %v across %d machines/%d jobs in %v\n",
			label, duration, cfg.Machines, jobs, runs[i].elapsed.Round(time.Millisecond))
	}
	base, faulted := runs[0], runs[1]
	if err := obs.Merge(base.hub, faulted.hub).WriteFiles(out.metrics, out.trace); err != nil {
		return nil, err
	}

	// Degraded-mode telemetry path: damage the faulted trace at rest the
	// way the plan's corruption windows would, then scrub before replay.
	dmg := fault.ApplyToTrace(plan, faulted.trace)
	scrubbed := faulted.trace.Scrub()
	if err := out.saveTraces(w, base.trace, faulted.trace); err != nil {
		return nil, err
	}
	faultCT := model.Compile(faulted.trace)
	faultModel, err := faultCT.Run(model.Config{Params: cfg.Params, SLO: core.DefaultSLO})
	if err != nil {
		return nil, err
	}

	fmt.Fprintf(w, "== live simulation ==\n%-28s %12s %12s\n", "", "baseline", "faulted")
	fmt.Fprintf(w, "%-28s %11.1f%% %11.1f%%\n", "coverage (median machine)", base.coverage.Median*100, faulted.coverage.Median*100)
	fmt.Fprintf(w, "%-28s %12d %12d\n", "evictions", base.evictions, faulted.evictions)
	fmt.Fprintf(w, "%-28s %12d %12d\n", "machine crashes", base.faults.Crashes, faulted.faults.Crashes)
	fmt.Fprintf(w, "%-28s %12d %12d\n", "watchdog restarts", base.faults.WatchdogRestarts, faulted.faults.WatchdogRestarts)
	fmt.Fprintf(w, "%-28s %12d %12d\n", "breaker trips", base.faults.BreakerTrips, faulted.faults.BreakerTrips)
	fmt.Fprintf(w, "%-28s %12d %12d\n", "breaker backoffs", base.faults.BackoffEvents, faulted.faults.BackoffEvents)
	fmt.Fprintf(w, "%-28s %12d %12d\n", "churn kills", base.faults.ChurnKills, faulted.faults.ChurnKills)
	fmt.Fprintf(w, "%-28s %12d %12d\n", "injected store errors", int(base.faults.InjectedErrors), int(faulted.faults.InjectedErrors))
	fmt.Fprintf(w, "%-28s %12d %12d\n", "dropped telemetry exports", base.faults.DroppedExports, faulted.faults.DroppedExports)

	fmt.Fprintf(w, "\n== promotion-rate SLO: machines against the model replaying each run's own trace ==\n")
	writeSLO(w, "baseline: ", base)
	writeSLO(w, plan.Name+": ", faulted)

	fmt.Fprintf(w, "\n== telemetry pipeline ==\nat-rest damage: %d dropped, %d corrupted; scrub removed %d entries\n",
		dmg.Dropped, dmg.Corrupted, scrubbed)
	fmt.Fprintf(w, "model replay baseline: %s\nmodel replay faulted:  %s\n", base.model, faultModel)
	if base.model.Coverage > 0 {
		fmt.Fprintf(w, "modelled coverage retained under faults: %.1f%%\n", faultModel.Coverage/base.model.Coverage*100)
	}

	// Staged rollout of an aggressive candidate, health-checked per stage
	// against the damaged telemetry: the rollout must catch the SLO breach
	// and roll back to the incumbent mid-deployment.
	candidate := core.Params{K: 50, S: 0}
	stages := []tuner.RolloutStage{{Name: "canary", Fraction: 0.25}, {Name: "half", Fraction: 0.50}, {Name: "fleet", Fraction: 1}}
	obj := tuner.CompiledStageObjective(faultCT, model.Config{SLO: core.DefaultSLO}, len(stages))
	rep, err := tuner.StagedRollout(candidate, cfg.Params, obj, stages, core.DefaultSLO)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "\n== staged rollout (candidate K=%.0f S=%v vs incumbent K=%.0f S=%v) ==\n",
		candidate.K, candidate.S, cfg.Params.K, cfg.Params.S)
	for _, sr := range rep.Stages {
		status := "ok"
		if !sr.Healthy {
			status = "ROLLED BACK"
		}
		fmt.Fprintf(w, "stage %-8s (%4.0f%% of jobs): %-11s %s\n", sr.Stage.Name, sr.Stage.Fraction*100, status, sr.Reason)
	}
	if rep.Accepted {
		fmt.Fprintf(w, "rollout accepted: fleet now runs K=%.0f S=%v\n", rep.Chosen.K, rep.Chosen.S)
	} else {
		fmt.Fprintf(w, "rollout rolled back at %q: fleet keeps K=%.0f S=%v\n", rep.RolledBackAt, rep.Chosen.K, rep.Chosen.S)
	}
	return base, nil
}

// fleetRun is one cluster simulation's harvest.
type fleetRun struct {
	machines           []*node.Machine
	hub                *obs.Multi       // the run's obs exports, nil without
	trace              *telemetry.Trace // every machine's telemetry exports
	elapsed            time.Duration
	coverage, coldFrac stats.Summary // across machines
	evictions          int
	evictionsPerJob    float64
	faults             node.FaultStats
	saved, footprint   uint64            // zswap pools' DRAM saved and their own footprint
	ratios             []float64         // compression ratio of each job that stored any
	comp, decomp       []float64         // each job's CPU overhead of (de)compression
	sloRate            float64           // core.FleetRate of the jobs' mean node.Job.RateSamples
	samples, violating int               // every job's RateSamples, and those over the SLO
	model              model.FleetResult // the fast model replaying trace at the run's (K, S)
	export             time.Duration     // the interval trace's first entry states
}

// runFleet builds the cluster cfg describes, schedules jobs on it, runs it
// for duration with its telemetry recorded into a trace, and harvests it.
func runFleet(cfg cluster.Config, jobs int, duration time.Duration) (*fleetRun, error) {
	trace := telemetry.NewTrace()
	cfg.DRAMPerMachine, cfg.CollectSamples, cfg.Collector = 4<<30, true, telemetry.NewCollector(trace)
	c, err := cluster.New(cfg)
	if err != nil {
		return nil, err
	}
	if err := c.Populate(jobs, nil, cfg.Seed); err != nil {
		return nil, err
	}
	start := time.Now()
	if err := c.Run(duration); err != nil {
		return nil, err
	}
	r := &fleetRun{
		machines: c.Machines(), hub: cfg.Obs, trace: trace, elapsed: time.Since(start),
		coverage: c.CoverageSummary(), coldFrac: c.ColdFractionSummary(),
		evictions: c.Evictions(), evictionsPerJob: c.EvictionSLO(), faults: c.FaultStats(),
	}
	var jobMeans []float64
	for _, m := range c.Machines() {
		if p, ok := m.Tier().(*zswap.Pool); ok {
			r.saved += p.SavedBytes()
			r.footprint += p.FootprintBytes()
		}
		for _, j := range m.Jobs() {
			if j.StoredBytes > 0 {
				r.ratios = append(r.ratios, j.CompressionRatio())
			}
			r.comp = append(r.comp, j.CPUOverheadCompress())
			r.decomp = append(r.decomp, j.CPUOverheadDecompress())
			if rates := j.RateSamples(); len(rates) > 0 {
				jobMeans = append(jobMeans, stats.Mean(rates))
				r.samples += len(rates)
				for _, rate := range rates {
					if rate > core.DefaultSLO.TargetRatePerMin {
						r.violating++
					}
				}
			}
		}
	}
	r.sloRate = core.FleetRate(jobMeans)
	if trace.Len() > 0 {
		r.export = time.Duration(trace.Entries[0].IntervalMinutes * float64(time.Minute))
	}
	r.model, err = model.Run(trace, model.Config{Params: cfg.Params, SLO: core.DefaultSLO})
	return r, err
}

// writeSLO prints run r's SLO statistic and share of intervals over the
// SLO on the machines (scans) beside the model's replay of r's trace
// (exports).
func writeSLO(w io.Writer, label string, r *fleetRun) {
	fmt.Fprintf(w, "%sSLO statistic (p98 of job mean promotion rates): machines %.4f%%/min, model %.4f%%/min (SLO %.4f%%/min)\n",
		label, r.sloRate*100, r.model.P98Rate*100, core.DefaultSLO.TargetRatePerMin*100)
	fmt.Fprintf(w, "%sover the SLO: machines %.1f%% of %d enabled %v samples, model %.1f%% of %d enabled %v intervals\n",
		label, float64(r.violating)/float64(max(r.samples, 1))*100, r.samples, kstaled.DefaultScanPeriod,
		r.model.ViolationFrac*100, r.model.EnabledIntervals, r.export)
}
