// Online control plane walkthrough (paper §5.3 run as a service).
//
// The example drives the fleet controller over the deterministic loopback
// transport, twice over the same telemetry:
//
//  1. a clean run — agents register, stream a 12-hour fleet trace interval
//     by interval, and every 4 hours of telemetry the controller compiles
//     the window, runs the GP-bandit, and pushes the winner through
//     canary → half → fleet deployment rings;
//
//  2. the same run under a seeded fault plan — one machine's telemetry
//     drops for two hours and a half-hour of fleet-wide exports arrives
//     bit-flipped — showing backpressure/reject accounting and how the
//     damage surfaces as gap intervals on the round that judged it.
//
// Both runs are byte-identical across executions. For the same controller
// behind real HTTP, run cmd/sdfmd and point agents at it.
//
//	go run ./examples/controlplane
package main

import (
	"fmt"
	"log"
	"time"

	"sdfm/internal/controlplane"
	"sdfm/internal/fault"
	"sdfm/internal/fleet"
	"sdfm/internal/telemetry"
	"sdfm/internal/tuner"
)

func main() {
	log.SetFlags(0)

	fmt.Println("generating a 12-hour fleet trace (2 clusters x 3 machines x 4 job slots)...")
	trace, err := fleet.Generate(fleet.Config{
		Clusters: 2, MachinesPerCluster: 3, JobsPerMachine: 4,
		Duration: 12 * time.Hour, Seed: 7,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  %d entries\n\n", trace.Len())

	cfg := controlplane.Config{
		RoundEvery: 4 * time.Hour,
		Tuner:      tuner.Config{Seed: 7, InitSamples: 4, Iterations: 6},
		Stages: []tuner.RolloutStage{
			{Name: "canary", Fraction: 0.2},
			{Name: "half", Fraction: 0.5},
			{Name: "fleet", Fraction: 1.0},
		},
	}

	fmt.Println("=== clean run: loopback fleet, no faults ===")
	clean := runFleet(trace, cfg, nil)

	// The same fleet under a lossy collection pipeline: machine m0001 goes
	// dark from hour 1 to hour 3, and every machine's exports are
	// bit-flipped (stale checksums) between hours 5 and 5.5.
	plan := &fault.Plan{
		Name: "lossy-pipeline",
		Seed: 42,
		Events: []fault.Event{
			{Kind: fault.TelemetryDrop, Machine: "m0001", At: time.Hour, Duration: 2 * time.Hour},
			{Kind: fault.TelemetryCorrupt, At: 5 * time.Hour, Duration: 30 * time.Minute},
		},
	}
	fmt.Println("\n=== faulted run: telemetry drops and corruption ===")
	faulted := runFleet(trace, cfg, plan)

	fmt.Println("\ndamage visibility, round by round (gap intervals / completeness):")
	for i := range clean.Rounds {
		c, f := clean.Rounds[i], faulted.Rounds[i]
		fmt.Printf("  round %d: clean %3d gaps (%.3f)   faulted %3d gaps (%.3f)\n",
			c.Round, c.GapIntervals, c.Completeness, f.GapIntervals, f.Completeness)
	}
	fmt.Println("\nthe controller never guesses across holes: dropped intervals are")
	fmt.Println("counted as gaps, corrupted entries are rejected at ingest, and every")
	fmt.Println("rollout decision is paired with how complete its window was.")
}

func runFleet(trace *telemetry.Trace, cfg controlplane.Config, plan *fault.Plan) controlplane.SimReport {
	cp, err := controlplane.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer cp.Close()
	rep, err := controlplane.RunSim(cp, trace, controlplane.SimConfig{Faults: plan})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d agents streamed %d intervals: %d entries sent, %d dropped on the wire, %d corrupted\n",
		rep.Agents, rep.Intervals, rep.Sent, rep.WireDropped, rep.WireCorrupted)
	st := cp.Status()
	fmt.Printf("ingest: %d accepted, %d rejected corrupt, %d rejected invalid, %d backpressure drops\n",
		st.Ingest.Ingested, st.Ingest.RejectedCorrupt, st.Ingest.RejectedInvalid, st.Ingest.DroppedBackpressure)
	for _, rr := range rep.Rounds {
		verdict := "accepted"
		if !rr.Accepted {
			verdict = fmt.Sprintf("rolled back at %q", rr.RolledBackAt)
		}
		fmt.Printf("round %d over [%5.1fh, %5.1fh]: %4d entries, %2d jobs -> K=%5.1f S=%-8s %s (coverage %.1f%%, p98 %.4f%%/min)\n",
			rr.Round,
			float64(rr.WindowStartSec)/3600, float64(rr.WindowEndSec)/3600,
			rr.Entries, rr.Jobs, rr.Candidate.K, rr.Candidate.S, verdict,
			rr.Coverage*100, rr.P98Rate*100)
	}
	inc := cp.Incumbent()
	fmt.Printf("fleet incumbent after %d rounds: K=%.1f S=%s (epoch %d)\n",
		len(rep.Rounds), inc.K, inc.S, st.Epoch)
	return rep
}
