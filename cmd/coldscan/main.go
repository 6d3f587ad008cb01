// Command coldscan inspects the kernel-side cold-page statistics of a
// simulated machine, in the spirit of reading kstaled's exports through
// procfs: per-job cold-age histograms, promotion histograms, working
// sets, and the threshold the §4.3 controller would choose under a given
// SLO — useful for understanding why the system picked the thresholds it
// did.
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"sdfm/internal/core"
	"sdfm/internal/node"
	"sdfm/internal/telemetry"
	"sdfm/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("coldscan: ")
	var (
		hours  = flag.Float64("hours", 4, "hours to simulate before scanning")
		seed   = flag.Int64("seed", 1, "random seed")
		target = flag.Float64("p", 0.2, "SLO: max promotions as % of WSS per minute")
	)
	flag.Parse()

	slo := core.DefaultSLO
	slo.TargetRatePerMin = *target / 100

	m, err := node.NewMachine(node.Config{
		Name: "coldscan", Cluster: "local", DRAMBytes: 4 << 30,
		Mode: node.ModeDisabled, // observe only; no reclaim
		SLO:  slo,
		Seed: *seed,
	})
	if err != nil {
		log.Fatal(err)
	}
	for i, arch := range workload.Archetypes {
		w, err := workload.New(workload.Config{
			Archetype: arch, Name: arch.Name, Seed: *seed + int64(i),
		})
		if err != nil {
			log.Fatal(err)
		}
		if _, err := m.AddJob(w); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("simulating %.1f h of accessed-bit scans over %d jobs...\n\n", *hours, len(m.Jobs()))
	if err := m.Run(time.Duration(*hours * float64(time.Hour))); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("SLO: promotion rate <= %.2f%% of WSS per minute\n\n", slo.TargetRatePerMin*100)
	for _, j := range m.Jobs() {
		census := j.Tracker.Census()
		promos := j.Tracker.Promotions()
		wss := core.WorkingSetPages(census, slo)
		minutes := float64(j.Tracker.Scans()) * j.Tracker.ScanPeriod().Minutes()
		best := core.BestThreshold(promos, wss, minutes, slo)

		fmt.Printf("job %-16s %6d pages  wss %6d pages  cold@120s %5.1f%%\n",
			j.Memcg.Name(), j.Memcg.NumPages(), wss,
			100*float64(census.TailSum(1))/float64(census.Total()))
		fmt.Printf("  best threshold for run-lifetime history: bucket %d (%v)\n",
			best, time.Duration(best)*j.Tracker.ScanPeriod())

		fmt.Printf("  %-12s %12s %14s\n", "T", "pages idle>=T", "would-promote")
		for _, b := range telemetry.DefaultThresholds {
			cold := census.TailSum(b)
			if cold == 0 && promos.TailSum(b) == 0 {
				continue
			}
			fmt.Printf("  %-12v %12d %11.2f/min\n",
				time.Duration(b)*j.Tracker.ScanPeriod(), cold,
				float64(promos.TailSum(b))/minutes)
		}
		fmt.Println()
	}
}
