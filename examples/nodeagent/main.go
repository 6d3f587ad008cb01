// Node-agent operations demo: job churn, memcg limits, and the
// monitoring surface.
//
// A machine runs a churning mix of jobs — some exit normally and are
// replaced, one grows until it blows through its memcg limit and is
// killed (the paper's fail-fast preference, §5.1) — while the node agent
// keeps compressing cold memory under the SLO. At the end the example
// prints the agent's monitoring snapshot, the same JSON served by the
// Borglet-style HTTP status endpoint.
//
//	go run ./examples/nodeagent
package main

import (
	"encoding/json"
	"fmt"
	"log"
	"os"
	"time"

	"sdfm/internal/core"
	"sdfm/internal/node"
	"sdfm/internal/workload"
)

func main() {
	log.SetFlags(0)

	m, err := node.NewMachine(node.Config{
		Name:      "agent-0",
		Cluster:   "ops-demo",
		DRAMBytes: 2 << 30,
		Mode:      node.ModeProactive,
		Params:    core.Params{K: 95, S: 10 * time.Minute},
		Seed:      3,
	})
	if err != nil {
		log.Fatal(err)
	}

	// A stable serving job.
	stable, err := workload.New(workload.Config{
		Archetype: workload.KVCache, Name: "kv-stable", Seed: 10,
	})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := m.AddJob(stable); err != nil {
		log.Fatal(err)
	}

	// A runaway log processor: grows 50%/hour into a 1.2x memcg limit.
	runaway := *workload.LogProcessor
	runaway.PagesMin, runaway.PagesMax = 3000, 3001
	runaway.GrowthPerHour = 0.5
	runaway.MemLimitFactor = 1.2
	growWL, err := workload.New(workload.Config{
		Archetype: &runaway, Name: "logs-runaway", Seed: 11,
	})
	if err != nil {
		log.Fatal(err)
	}
	grow, err := m.AddJob(growWL)
	if err != nil {
		log.Fatal(err)
	}

	// Short-lived batch instances churn every 90 minutes.
	fmt.Println("running 6 hours with churn...")
	for gen := 0; gen < 4; gen++ {
		w, err := workload.New(workload.Config{
			Archetype: workload.BatchAnalytics,
			Name:      fmt.Sprintf("batch-gen%d", gen),
			Seed:      int64(20 + gen),
			Start:     m.Now(),
		})
		if err != nil {
			log.Fatal(err)
		}
		j, err := m.AddJob(w)
		if err != nil {
			log.Fatal(err)
		}
		if err := m.Run(m.Now() + 90*time.Minute); err != nil {
			log.Fatal(err)
		}
		if err := m.RemoveJob(j); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  t=%v: %s finished; machine coverage %.1f%%, limit kills %d\n",
			m.Now(), w.Name(), m.Coverage()*100, m.LimitKills())
	}

	fmt.Printf("\nrunaway job state: killed at limit = %v (grew to %d pages, limit %d)\n",
		m.LimitKills() > 0, grow.Memcg.NumPages(), grow.Memcg.LimitBytes/4096)

	fmt.Println("\nnode-agent monitoring snapshot (served at /<machine>/ by fleetsim -serve):")
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(m.Snapshot()); err != nil {
		log.Fatal(err)
	}
}
