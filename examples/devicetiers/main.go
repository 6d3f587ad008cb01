// Device tiers: the same control plane over different far memory (§3, §7).
//
// The paper argues its cold-page identification design generalizes beyond
// zswap. This example runs identical workloads on five machines whose far
// memory differs: zswap (compressed DRAM), NVM DIMMs, remote memory, a
// Z-SSD, and NVM in front of zswap as two tiers — and compares promotion
// latency, DRAM consumed by the tier itself, and the capacity-stranding
// exposure of fixed-size devices.
//
//	go run ./examples/devicetiers
package main

import (
	"fmt"
	"log"
	"time"

	"sdfm/internal/core"
	"sdfm/internal/node"
	"sdfm/internal/stats"
	"sdfm/internal/workload"
	"sdfm/internal/zswap"
)

func main() {
	log.SetFlags(0)

	type tierCase struct {
		name string
		tier zswap.FarMemory
	}
	// The NVM device is provisioned at a fixed 20% of DRAM, the paper's
	// example of the stranding dilemma (§2.2).
	nvmProfile := zswap.ProfileNVM
	nvmProfile.CapacityBytes = 100 << 20
	cases := []tierCase{
		{"zswap", zswap.NewPool()},
		{"nvm-dimm(fixed)", zswap.NewDevicePool(nvmProfile)},
		{"remote-memory", zswap.NewDevicePool(zswap.ProfileRemoteMemory)},
		{"z-ssd", zswap.NewDevicePool(zswap.ProfileZSSD)},
		// The paper's §8 end state: sub-µs tier-1 in front of zswap tier-2.
		{"nvm+zswap", zswap.NewTieredPool(nvmProfile, zswap.NewPool(), 30)},
	}

	fmt.Printf("%-16s %12s %12s %14s %12s %10s\n",
		"tier", "stored", "promoted", "p50 latency", "own DRAM", "stranded")
	for _, tc := range cases {
		m, err := node.NewMachine(node.Config{
			Name:           "m-" + tc.name,
			Cluster:        "tiers",
			DRAMBytes:      2 << 30,
			Mode:           node.ModeProactive,
			Params:         core.Params{K: 95, S: 10 * time.Minute},
			Tier:           tc.tier,
			CollectSamples: true,
			Seed:           5,
		})
		if err != nil {
			log.Fatal(err)
		}
		for i, arch := range []*workload.Archetype{workload.LogProcessor, workload.BatchAnalytics} {
			w, err := workload.New(workload.Config{
				Archetype: arch, Name: fmt.Sprintf("%s-%d", arch.Name, i), Seed: int64(10 + i),
			})
			if err != nil {
				log.Fatal(err)
			}
			if _, err := m.AddJob(w); err != nil {
				log.Fatal(err)
			}
		}
		if err := m.Run(6 * time.Hour); err != nil {
			log.Fatal(err)
		}

		st := tc.tier.Stats()
		var latencies []float64
		for _, j := range m.Jobs() {
			latencies = append(latencies, j.LatencySamples()...)
		}
		p50 := stats.Percentile(latencies, 50)
		stranded := "n/a"
		if d, ok := tc.tier.(*zswap.DevicePool); ok {
			stranded = fmt.Sprintf("%.0f MiB", float64(d.StrandedBytes())/(1<<20))
		}
		fmt.Printf("%-16s %9d pp %9d pp %11.1f µs %9.1f MiB %10s\n",
			tc.name, st.StoredPages, st.LoadedPages, p50,
			float64(tc.tier.FootprintBytes())/(1<<20), stranded)
	}
	fmt.Println("\nzswap trades CPU cycles for capacity with zero extra hardware and no")
	fmt.Println("stranding; fixed devices either strand capacity or run out (§2.1, §3.1).")
}
