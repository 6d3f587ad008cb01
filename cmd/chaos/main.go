// Command chaos searches the fault space for plans that break the fleet.
//
//	chaos search  -seeds 64           # run 64 random fault plans, report findings
//	chaos shrink  -plan bad.json      # delta-debug a failing plan to a minimal one
//	chaos replay  -plan min.json      # re-run one plan under the auditor
//
// Every run executes with the invariant auditor enabled, so a finding is
// an invariant violation, a panic, a non-audit error, or (with
// -determinism) a fingerprint divergence between two runs of the same
// plan. Plans are JSON interchangeable with cmd/fleetsim -plan, so a
// shrunk reproducer feeds straight into the degraded-mode report there.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"sdfm/internal/chaos"
	"sdfm/internal/fault"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("chaos: ")
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "search":
		runSearch(os.Args[2:])
	case "shrink":
		runShrink(os.Args[2:])
	case "replay":
		runReplay(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: chaos <command> [flags]

commands:
  search   generate seeded random fault plans, run each against an audited
           fleet, and report every plan that breaks an invariant
  shrink   minimize a failing plan with delta debugging
  replay   run one plan JSON under the auditor and report the verdict

run "chaos <command> -h" for the command's flags
`)
	os.Exit(2)
}

// fleetFlags registers the shared fleet shape flags on fs and returns a
// builder resolving them to a FleetConfig.
func fleetFlags(fs *flag.FlagSet) func() chaos.FleetConfig {
	machines := fs.Int("machines", 3, "machines in the fleet")
	jobs := fs.Int("jobs", 9, "total jobs to schedule")
	dram := fs.Uint64("dram-mb", 1024, "DRAM per machine (MiB)")
	hours := fs.Float64("hours", 2, "simulated hours per run")
	seed := fs.Int64("fleet-seed", 11, "fleet seed (scheduling, memcg content)")
	deep := fs.Int("deep-every", 64, "deep recount cadence in steps (0: end of run only)")
	determinism := fs.Bool("determinism", false, "rerun clean plans and flag fingerprint drift")
	short := fs.Bool("short", false, "smoke mode: tiny fleet, 1 simulated hour")
	return func() chaos.FleetConfig {
		fc := chaos.FleetConfig{
			Machines:         *machines,
			Jobs:             *jobs,
			DRAMPerMachine:   *dram << 20,
			Duration:         time.Duration(*hours * float64(time.Hour)),
			Seed:             *seed,
			CheckDeterminism: *determinism,
		}
		if *deep > 0 {
			fc.Audit.DeepEverySteps = *deep
		}
		if *short {
			fc.Machines = 2
			fc.Jobs = 3
			fc.DRAMPerMachine = 512 << 20
			fc.Duration = time.Hour
		}
		return fc
	}
}

func runSearch(args []string) {
	fs := flag.NewFlagSet("search", flag.ExitOnError)
	seeds := fs.Int("seeds", 64, "number of random plans to run")
	seed0 := fs.Int64("seed0", 1, "first plan seed")
	maxEvents := fs.Int("max-events", 8, "max events per generated plan")
	out := fs.String("out", "", "directory to write failing plan JSON into")
	fleet := fleetFlags(fs)
	fs.Parse(args)

	fc := fleet()
	start := time.Now()
	sr := chaos.Search(chaos.SearchConfig{
		Seeds: *seeds,
		Seed0: *seed0,
		Plan:  chaos.PlanConfig{MaxEvents: *maxEvents},
		Fleet: fc,
		Progress: func(seed int64, rep chaos.Report) {
			if rep.Failed() {
				fmt.Printf("seed %-6d FAIL %s\n", seed, rep.Summary())
			} else {
				fmt.Printf("seed %-6d ok   fingerprint %016x\n", seed, rep.Fingerprint)
			}
		},
	})
	fmt.Printf("\n%d plans in %v: %d findings\n",
		sr.Runs, time.Since(start).Round(time.Millisecond), len(sr.Findings))
	for _, f := range sr.Findings {
		fmt.Printf("  plan %q (seed %d): %s\n", f.Plan.Name, f.Plan.Seed, f.Summary())
		if *out != "" {
			path := fmt.Sprintf("%s/%s.json", *out, f.Plan.Name)
			if err := savePlan(path, f.Plan); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  wrote %s (shrink with: chaos shrink -plan %s)\n", path, path)
		}
	}
	if len(sr.Findings) > 0 {
		os.Exit(1)
	}
}

func runShrink(args []string) {
	fs := flag.NewFlagSet("shrink", flag.ExitOnError)
	planPath := fs.String("plan", "", "failing plan JSON to minimize (required)")
	out := fs.String("out", "", "write the minimized plan JSON here (default: stdout)")
	maxTrials := fs.Int("max-trials", 200, "fleet-run budget for the shrink")
	fleet := fleetFlags(fs)
	fs.Parse(args)
	if *planPath == "" {
		log.Fatal("shrink: -plan is required")
	}

	plan := loadPlan(*planPath)
	res, err := chaos.Shrink(plan, fleet(), *maxTrials)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("shrunk %q: %d -> %d events in %d trials, reproducing %s\n",
		plan.Name, len(plan.Events), len(res.Plan.Events), res.Trials, res.Signature)
	for _, e := range res.Plan.Events {
		fmt.Printf("  %+v\n", e)
	}
	if *out != "" {
		if err := savePlan(*out, res.Plan); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s (replay with: chaos replay -plan %s)\n", *out, *out)
	} else if err := res.Plan.Save(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func runReplay(args []string) {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	planPath := fs.String("plan", "", "plan JSON to replay (required)")
	fleet := fleetFlags(fs)
	fs.Parse(args)
	if *planPath == "" {
		log.Fatal("replay: -plan is required")
	}

	plan := loadPlan(*planPath)
	rep := chaos.Run(plan, fleet())
	fmt.Printf("plan %q (%d events): %s\n", plan.Name, len(plan.Events), rep.Summary())
	for _, v := range rep.Violations {
		fmt.Printf("  %s\n", v)
	}
	if rep.Outcome == chaos.OutcomeClean {
		fmt.Printf("fingerprint %016x, faults: %+v\n", rep.Fingerprint, rep.FaultStats)
	}
	if rep.Failed() {
		os.Exit(1)
	}
}

func loadPlan(path string) *fault.Plan {
	f, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	plan, err := fault.LoadPlan(f)
	if err != nil {
		log.Fatal(err)
	}
	// LoadPlan validates, but make the contract explicit: a hand-edited
	// plan must fail here, not half-way through a fleet run.
	if err := plan.Validate(); err != nil {
		log.Fatal(err)
	}
	return plan
}

func savePlan(path string, plan *fault.Plan) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := plan.Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
