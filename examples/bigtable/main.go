// Bigtable A/B case study (paper §6.4, Figure 10).
//
// Machines are randomly split into a control group (far memory disabled)
// and an experiment group (proactive zswap). Every machine serves
// Bigtable-like workloads: an in-memory block cache with Zipf-like reuse
// and strong diurnal load. The example reports cold-memory coverage in
// the experiment group over time and the user-level IPC difference
// between groups, which should be within machine-to-machine noise.
//
//	go run ./examples/bigtable
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"sdfm/internal/cluster"
	"sdfm/internal/core"
	"sdfm/internal/node"
	"sdfm/internal/workload"
)

const (
	machines = 6 // per group
	hours    = 8
)

func main() {
	log.SetFlags(0)

	c, err := cluster.New(cluster.Config{
		Name:           "bigtable-ab",
		Machines:       2 * machines,
		DRAMPerMachine: 4 << 30,
		ModeFn: func(i int) node.Mode {
			if i%2 == 0 {
				return node.ModeProactive // experiment
			}
			return node.ModeDisabled // control
		},
		Params: core.Params{K: 95, S: 10 * time.Minute},
		Seed:   7,
	})
	if err != nil {
		log.Fatal(err)
	}
	for i, m := range c.Machines() {
		for j := 0; j < 2; j++ {
			w, err := workload.New(workload.Config{
				Archetype: workload.BigtableServer,
				Name:      fmt.Sprintf("bigtable-%02d-%d", i, j),
				Seed:      int64(1000 + i*10 + j),
			})
			if err != nil {
				log.Fatal(err)
			}
			if _, err := m.AddJob(w); err != nil {
				log.Fatal(err)
			}
		}
	}

	exp := c.Group(node.ModeProactive)
	ctl := c.Group(node.ModeDisabled)
	fmt.Printf("A/B groups: %d experiment, %d control machines, %d Bigtable jobs\n\n",
		len(exp), len(ctl), c.JobCount())

	fmt.Println("hour  coverage(experiment)")
	for t := time.Hour; t <= hours*time.Hour; t += time.Hour {
		if err := c.Run(t); err != nil {
			log.Fatal(err)
		}
		var cold, compressed float64
		for _, m := range exp {
			cold += float64(m.ColdPagesAtMin())
			compressed += float64(m.CompressedPages())
		}
		cov := 0.0
		if cold > 0 {
			cov = compressed / cold
		}
		fmt.Printf("%4d  %5.1f%%\n", int(t.Hours()), cov*100)
	}

	// User-level IPC proxy: baseline with per-machine noise, degraded by
	// indirect interference from zswap cycles (kernel cycles themselves
	// are excluded from user IPC, as in the paper's methodology).
	rng := rand.New(rand.NewSource(99))
	ipc := func(m *node.Machine) float64 {
		var overhead, cpu time.Duration
		for _, j := range m.Jobs() {
			overhead += j.CompressCPU + j.DecompressCPU + j.StallTime
			cpu += j.CPUUsed
		}
		frac := 0.0
		if cpu > 0 {
			frac = float64(overhead) / float64(cpu)
		}
		return (1 - 0.3*frac) * (1 + 0.01*rng.NormFloat64())
	}
	var expIPC, ctlIPC float64
	for _, m := range exp {
		expIPC += ipc(m)
	}
	for _, m := range ctl {
		ctlIPC += ipc(m)
	}
	expIPC /= float64(len(exp))
	ctlIPC /= float64(len(ctl))
	fmt.Printf("\nuser-level IPC: experiment %.4f vs control %.4f (delta %+.3f%%)\n",
		expIPC, ctlIPC, (expIPC/ctlIPC-1)*100)
	fmt.Println("paper result: IPC difference within noise; coverage 5-15% with ~3x variation over time")
}
