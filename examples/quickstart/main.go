// Quickstart: run software-defined far memory on one machine.
//
// This example builds a single simulated machine with a zswap far-memory
// tier (payload validation on, so every promoted page is decompressed and
// byte-compared against its original content), schedules two jobs on it,
// runs six hours, and prints what the far-memory system achieved.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	"sdfm/internal/core"
	"sdfm/internal/kstaled"
	"sdfm/internal/node"
	"sdfm/internal/workload"
	"sdfm/internal/zswap"
)

func main() {
	log.SetFlags(0)

	// A zswap pool with full payload validation: Store really compresses
	// each page's bytes; Load decompresses and verifies them.
	pool := zswap.NewPool(zswap.WithValidation())

	machine, err := node.NewMachine(node.Config{
		Name:      "quickstart-0",
		Cluster:   "demo",
		DRAMBytes: 2 << 30,
		Mode:      node.ModeProactive,
		Params:    core.Params{K: 95, S: 10 * time.Minute},
		Tier:      pool,
		Seed:      42,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Two jobs with very different temperature profiles.
	for i, arch := range []*workload.Archetype{workload.LogProcessor, workload.KVCache} {
		w, err := workload.New(workload.Config{
			Archetype: arch,
			Name:      fmt.Sprintf("%s-%d", arch.Name, i),
			Seed:      int64(100 + i),
		})
		if err != nil {
			log.Fatal(err)
		}
		if _, err := machine.AddJob(w); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("scheduled %-16s %6d pages (%.0f MiB)\n",
			w.Name(), w.Pages(), float64(w.Pages())*4096/(1<<20))
	}

	fmt.Println("\nsimulating 6 hours (scan period 120 s)...")
	if err := machine.Run(6 * time.Hour); err != nil {
		log.Fatal(err)
	}

	st := pool.Stats()
	fmt.Printf("\ncold memory identified:  %.1f%% of fleet pages idle >= 120 s\n",
		machine.ColdFraction()*100)
	fmt.Printf("cold memory coverage:    %.1f%% of it held compressed\n",
		machine.Coverage()*100)
	fmt.Printf("far memory pages:        %d compressed now (%d stored, %d promoted back)\n",
		machine.CompressedPages(), st.StoredPages, st.LoadedPages)
	fmt.Printf("incompressible rejects:  %d pages marked and skipped\n", st.RejectedPages)
	fmt.Printf("DRAM saved:              %.1f MiB (pool footprint %.1f MiB)\n",
		float64(pool.SavedBytes())/(1<<20), float64(pool.FootprintBytes())/(1<<20))
	fmt.Printf("payload validation:      %d errors (every promoted page byte-compared, every reused size rechecked)\n",
		st.ValidationErrs)

	for _, j := range machine.Jobs() {
		fmt.Printf("\njob %s:\n", j.Memcg.Name())
		fmt.Printf("  compression ratio     %.2fx\n", j.CompressionRatio())
		fmt.Printf("  promotion faults      %d\n", j.Promotions)
		fmt.Printf("  CPU overhead          %.4f%% compress, %.4f%% decompress\n",
			j.CPUOverheadCompress()*100, j.CPUOverheadDecompress()*100)
		fmt.Printf("  cold-age threshold    %v\n",
			j.Controller.ThresholdDuration(kstaled.DefaultScanPeriod))
	}
}
