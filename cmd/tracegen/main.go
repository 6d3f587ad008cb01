// Command tracegen synthesizes a warehouse-scale far-memory telemetry
// trace (the §5.3 schema: per-job working set, cold-age and promotion
// tails every 5 minutes) and writes it to a file for offline analysis
// with the autotune tool or the fast far memory model.
//
// The output is the chunked columnar store: entries stream to disk as
// they are generated, so trace size is bounded by the disk, not by memory.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"sort"
	"time"

	"sdfm/internal/fleet"
	"sdfm/internal/obs"
	"sdfm/internal/telemetry"
	"sdfm/internal/tracestore"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tracegen: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run parses args, generates the trace into a file (or, with -stats,
// summarizes it to stdout) and writes the run's metrics if asked.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("tracegen", flag.ExitOnError)
	var (
		out        = fs.String("o", "fleet.trace", "output file")
		clusters   = fs.Int("clusters", 4, "number of clusters")
		machines   = fs.Int("machines", 20, "machines per cluster")
		jobs       = fs.Int("jobs", 6, "job slots per machine")
		hours      = fs.Float64("hours", 48, "trace duration in hours")
		seed       = fs.Int64("seed", 1, "random seed")
		stats      = fs.Bool("stats", false, "print trace statistics instead of writing a file")
		metricsOut = fs.String("metricsout", "", "write Prometheus metrics for the generation run to this file")
	)
	fs.Parse(args)
	// Zero would read as "use the default" in fleet.Config, so a zero or
	// negative size or duration is refused here, before any file exists.
	if *clusters <= 0 || *machines <= 0 || *jobs <= 0 {
		return fmt.Errorf("-clusters, -machines and -jobs must be positive, not %d, %d and %d", *clusters, *machines, *jobs)
	}
	if !(*hours > 0 && *hours*float64(time.Hour) < math.MaxInt64) {
		return fmt.Errorf("-hours must be positive and fit a time.Duration, not %v", *hours)
	}

	var multi *obs.Multi
	var observer *obs.Observer
	if *metricsOut != "" {
		multi = obs.NewMulti(obs.Label{Key: "run", Value: "tracegen"})
		observer = multi.Observer("tracegen")
	}

	cfg := fleet.Config{
		Clusters:           *clusters,
		MachinesPerCluster: *machines,
		JobsPerMachine:     *jobs,
		Duration:           time.Duration(*hours * float64(time.Hour)),
		Seed:               *seed,
		Obs:                observer,
	}

	if *stats {
		trace, err := fleet.Generate(cfg)
		if err != nil {
			return err
		}
		printStats(stdout, trace)
	} else {
		w, err := writeTrace(*out, cfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s: %d entries, %d jobs, %d clusters x %d machines, %.0f h\n",
			*out, w.Entries(), w.Jobs(), *clusters, *machines, *hours)
	}
	return multi.WriteFiles(*metricsOut, "")
}

// writeTrace streams generation straight into a chunked store at path:
// the trace never exists in memory as a whole.
func writeTrace(path string, cfg fleet.Config) (*tracestore.Writer, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	defer f.Close() // on the error paths; success closes it below
	w, err := tracestore.NewWriter(f, tracestore.MetaOf(telemetry.NewTrace()))
	if err != nil {
		return nil, err
	}
	if err := fleet.GenerateTo(cfg, w); err != nil {
		return nil, err
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return w, f.Close()
}

// printStats summarizes a trace the way the fleet characterization (§2.2)
// would: entry counts, the fleet cold curve anchor point, and per-cluster
// job counts in cluster order.
func printStats(w io.Writer, trace *telemetry.Trace) {
	fmt.Fprintf(w, "entries: %d  jobs: %d  thresholds: %d  scan period: %ds\n",
		trace.Len(), len(trace.Jobs()), len(trace.Thresholds), trace.ScanPeriodSeconds)
	var coldAtMin, total float64
	for _, e := range trace.Entries {
		coldAtMin += float64(e.ColdTails[0])
		total += float64(e.TotalPages)
	}
	if total > 0 {
		fmt.Fprintf(w, "fleet cold fraction @120s: %.1f%%\n", 100*coldAtMin/total)
	}
	byCluster := map[string]int{}
	for _, k := range trace.Jobs() {
		byCluster[k.Cluster]++
	}
	clusters := make([]string, 0, len(byCluster))
	for c := range byCluster {
		clusters = append(clusters, c)
	}
	sort.Strings(clusters)
	for _, c := range clusters {
		fmt.Fprintf(w, "  %s: %d jobs\n", c, byCluster[c])
	}
}
