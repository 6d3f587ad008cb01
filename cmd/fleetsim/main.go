// Command fleetsim runs a page-accurate multi-machine far-memory
// simulation and reports the machine-level statistics of §6: coverage,
// promotion rates, CPU overheads, compression characteristics, and the
// eviction SLO.
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"time"

	"sdfm/internal/cluster"
	"sdfm/internal/core"
	"sdfm/internal/node"
	"sdfm/internal/obs"
	"sdfm/internal/stats"
	"sdfm/internal/zswap"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fleetsim: ")
	var (
		machines   = flag.Int("machines", 4, "number of machines")
		jobs       = flag.Int("jobs", 12, "total jobs to schedule")
		hours      = flag.Float64("hours", 8, "simulated hours")
		k          = flag.Float64("k", 95, "K percentile parameter")
		warmup     = flag.Duration("s", 10*time.Minute, "S warmup parameter")
		seed       = flag.Int64("seed", 1, "random seed")
		mode       = flag.String("mode", "proactive", "far-memory mode: proactive, reactive, disabled")
		serve      = flag.String("serve", "", "after the run, serve node-agent status pages at this address (e.g. :8080)")
		metricsOut = flag.String("metricsout", "", "write Prometheus metrics to this file at exit")
		traceOut   = flag.String("traceout", "", "write a Chrome trace_event JSON file at exit (open in chrome://tracing or Perfetto)")
	)
	flag.Parse()

	var m node.Mode
	switch *mode {
	case "proactive":
		m = node.ModeProactive
	case "reactive":
		m = node.ModeReactive
	case "disabled":
		m = node.ModeDisabled
	default:
		log.Fatalf("unknown mode %q", *mode)
	}

	var multi *obs.Multi
	if *metricsOut != "" || *traceOut != "" {
		multi = obs.NewMulti(obs.Label{Key: "run", Value: "fleetsim"})
	}
	c, err := cluster.New(cluster.Config{
		Name:           "fleetsim",
		Machines:       *machines,
		DRAMPerMachine: 4 << 30,
		Mode:           m,
		Params:         core.Params{K: *k, S: *warmup},
		CollectSamples: true,
		Seed:           *seed,
		Obs:            multi,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := c.Populate(*jobs, nil, *seed); err != nil {
		log.Fatal(err)
	}
	duration := time.Duration(*hours * float64(time.Hour))
	start := time.Now()
	if err := c.Run(duration); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("simulated %v across %d machines/%d jobs in %v\n\n",
		duration, *machines, *jobs, time.Since(start).Round(time.Millisecond))

	cov := c.CoverageSummary()
	cf := c.ColdFractionSummary()
	fmt.Printf("cold memory per machine: median %.1f%% (q1 %.1f%%, q3 %.1f%%)\n",
		cf.Median*100, cf.Q1*100, cf.Q3*100)
	fmt.Printf("coverage per machine:    median %.1f%% (q1 %.1f%%, q3 %.1f%%)\n",
		cov.Median*100, cov.Q1*100, cov.Q3*100)
	fmt.Printf("evictions: %d (%.4f per job)\n\n", c.Evictions(), c.EvictionSLO())

	var ratios, comp, decomp, rates []float64
	var saved, footprint uint64
	for _, machine := range c.Machines() {
		if p, ok := machine.Tier().(*zswap.Pool); ok {
			saved += p.SavedBytes()
			footprint += p.FootprintBytes()
		}
		for _, j := range machine.Jobs() {
			if j.StoredBytes > 0 {
				ratios = append(ratios, j.CompressionRatio())
			}
			comp = append(comp, j.CPUOverheadCompress())
			decomp = append(decomp, j.CPUOverheadDecompress())
			rates = append(rates, j.RateSamples()...)
		}
	}
	fmt.Printf("DRAM saved: %.1f MiB (pool footprint %.1f MiB)\n",
		float64(saved)/(1<<20), float64(footprint)/(1<<20))
	if len(ratios) > 0 {
		fmt.Printf("compression ratio: median %.2fx\n", stats.Percentile(ratios, 50))
	}
	fmt.Printf("CPU overhead p98: compression %.4f%%, decompression %.4f%% of job CPU\n",
		stats.Percentile(comp, 98)*100, stats.Percentile(decomp, 98)*100)
	if len(rates) > 0 {
		fmt.Printf("promotion rate: p50 %.4f%%/min, p98 %.4f%%/min (SLO %.4f%%/min)\n",
			stats.Percentile(rates, 50)*100, stats.Percentile(rates, 98)*100,
			core.DefaultSLO.TargetRatePerMin*100)
	}

	if err := multi.WriteFiles(*metricsOut, *traceOut); err != nil {
		log.Fatal(err)
	}
	if *metricsOut != "" {
		fmt.Printf("wrote metrics to %s\n", *metricsOut)
	}
	if *traceOut != "" {
		fmt.Printf("wrote trace to %s\n", *traceOut)
	}

	if *serve != "" {
		mux := http.NewServeMux()
		for _, machine := range c.Machines() {
			mux.Handle("/"+machine.Name()+"/", http.StripPrefix("/"+machine.Name(), node.StatusHandler(machine)))
		}
		fmt.Printf("\nserving node-agent status at http://%s/<machine>/ (and /<machine>/text)\n", *serve)
		log.Fatal(http.ListenAndServe(*serve, mux))
	}
}
