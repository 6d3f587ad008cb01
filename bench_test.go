// Benchmarks that nothing else in the repository measures: the trace
// store's ingest and scan paths, the reclaim walk, one job-week of model
// replay, and the §7–8 tier and cold-detection comparisons (E1, E2). The
// paper's figures are printed by cmd/sdfm-experiments and asserted by the
// shape tests in internal/experiments; per-layer costs are rows of the
// bench/ ledger.
//
//	go test -run '^$' -bench . -benchmem
package sdfm_test

import (
	"bytes"
	"testing"
	"time"

	"sdfm/internal/core"
	"sdfm/internal/fleet"
	"sdfm/internal/kreclaimd"
	"sdfm/internal/kstaled"
	"sdfm/internal/mem"
	"sdfm/internal/model"
	"sdfm/internal/node"
	"sdfm/internal/pagedata"
	"sdfm/internal/simtime"
	"sdfm/internal/telemetry"
	"sdfm/internal/thermostat"
	"sdfm/internal/tracestore"
	"sdfm/internal/workload"
	"sdfm/internal/zswap"
)

const benchSeed = 1

// benchTrace builds the ScaleSmall-equivalent fleet trace the trace-store
// benchmarks share.
func benchTrace(b *testing.B) *telemetry.Trace {
	b.Helper()
	trace, err := fleet.Generate(fleet.Config{
		Clusters: 4, MachinesPerCluster: 8, JobsPerMachine: 5,
		Duration: 24 * time.Hour, Seed: benchSeed,
	})
	if err != nil {
		b.Fatal(err)
	}
	return trace
}

// BenchmarkTraceStoreIngest measures streaming ingest into the chunked
// columnar store: encode, compress, CRC, write, per entry. Throughput is
// reported over the encoded output bytes.
func BenchmarkTraceStoreIngest(b *testing.B) {
	trace := benchTrace(b)
	var size int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cw := &countingWriter{}
		if err := tracestore.WriteTrace(cw, trace); err != nil {
			b.Fatal(err)
		}
		size = cw.n
	}
	b.SetBytes(size)
	b.ReportMetric(float64(trace.Len())/b.Elapsed().Seconds()*float64(b.N), "entries/s")
}

// BenchmarkTraceStoreScan measures the out-of-core read path: CRC check,
// decompress, columnar decode, entry validation, per chunk. Throughput is
// over the on-disk bytes scanned.
func BenchmarkTraceStoreScan(b *testing.B) {
	trace := benchTrace(b)
	var buf bytes.Buffer
	if err := tracestore.WriteTrace(&buf, trace); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := tracestore.NewReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		if err := r.Scan(func(telemetry.Entry) error { n++; return nil }); err != nil {
			b.Fatal(err)
		}
		if n != trace.Len() {
			b.Fatalf("scanned %d entries, want %d", n, trace.Len())
		}
	}
}

// countingWriter discards writes, counting bytes.
type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

func BenchmarkModelReplayWeekPerJob(b *testing.B) {
	// Throughput of the fast far memory model: one job's week of 5-minute
	// intervals per iteration (§5.3 claims a week of the whole WSC in
	// under an hour; this measures the per-job unit cost).
	trace, err := fleet.Generate(fleet.Config{
		Clusters: 1, MachinesPerCluster: 1, JobsPerMachine: 1,
		Duration: 7 * 24 * time.Hour, Seed: benchSeed, ChurnFraction: 0.0001,
	})
	if err != nil {
		b.Fatal(err)
	}
	cfg := model.Config{Params: core.DefaultParams, SLO: core.DefaultSLO, Workers: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := model.Run(trace, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTieredFarMemory(b *testing.B) {
	// §8 extension ablation: single-tier zswap vs NVM tier-1 + zswap
	// tier-2 under the same control plane. Reports mean promotion latency
	// for each; the tiered configuration should win by absorbing
	// early-repromoted pages on the fast tier.
	run := func(tier zswap.FarMemory, seed int64) (float64, error) {
		m, err := node.NewMachine(node.Config{
			Name: "bench", Cluster: "tiered", DRAMBytes: 4 << 30,
			Mode: node.ModeProactive, Params: core.Params{K: 90, S: 10 * time.Minute},
			Tier: tier, CollectSamples: true, Seed: seed,
		})
		if err != nil {
			return 0, err
		}
		w, err := workload.New(workload.Config{
			Archetype: workload.BatchAnalytics, Name: "batch", Seed: seed,
		})
		if err != nil {
			return 0, err
		}
		if _, err := m.AddJob(w); err != nil {
			return 0, err
		}
		if err := m.Run(5 * time.Hour); err != nil {
			return 0, err
		}
		var sum float64
		var n int
		for _, j := range m.Jobs() {
			for _, l := range j.LatencySamples() {
				sum += l
				n++
			}
		}
		if n == 0 {
			return 0, nil
		}
		return sum / float64(n), nil
	}
	nvm := zswap.ProfileNVM
	nvm.CapacityBytes = 64 << 20
	for i := 0; i < b.N; i++ {
		single, err := run(zswap.NewPool(), benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		tiered, err := run(zswap.NewTieredPool(nvm, zswap.NewPool(), 30), benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(single, "singleTierP50_us")
		b.ReportMetric(tiered, "tieredMean_us")
	}
}

// BenchmarkReclaimCold isolates the reclaim walk on a 256k-page memcg.
// "idle" is the common case — every page hot, nothing at or above the
// threshold; the walk-based implementation still visits all pages, the
// bucket index answers from 256 counters. "drained" is the steady state
// after reclaim: everything cold is already compressed, so eligibility
// checks find nothing new.
func BenchmarkReclaimCold(b *testing.B) {
	const pages = 262_144
	build := func() (*mem.Memcg, *kreclaimd.Reclaimer) {
		m := mem.NewMemcg(mem.Config{
			Name: "bench", Pages: pages,
			Mix: pagedata.NewMix(0, 1, 1, 1, 0), SeedBase: 9,
		})
		return m, kreclaimd.New(zswap.NewPool())
	}
	b.Run("idle", func(b *testing.B) {
		m, r := build()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res := r.ReclaimCold(m, 120)
			if res.Stored != 0 {
				b.Fatalf("stored %d pages from an all-hot memcg", res.Stored)
			}
		}
	})
	b.Run("drained", func(b *testing.B) {
		m, r := build()
		for id := mem.PageID(0); int(id) < m.NumPages(); id++ {
			m.SetAge(id, 200)
		}
		if res := r.ReclaimCold(m, 120); res.Stored == 0 {
			b.Fatal("drain pass stored nothing")
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res := r.ReclaimCold(m, 120)
			if res.Stored != 0 {
				b.Fatalf("stored %d pages from a drained memcg", res.Stored)
			}
		}
	})
}

func BenchmarkThermostatVsKstaled(b *testing.B) {
	// §7 baseline comparison: sampling-based cold detection (Thermostat)
	// induces application-visible faults that grow with sample size, while
	// accessed-bit scanning (kstaled) pays a fixed background cost and
	// sees every page. Reports both costs over 30 scan intervals.
	for i := 0; i < b.N; i++ {
		w, err := workload.New(workload.Config{
			Archetype: workload.LogProcessor, Name: "th", Seed: benchSeed,
		})
		if err != nil {
			b.Fatal(err)
		}
		m := mem.NewMemcg(w.MemcgConfig(7))
		det, err := thermostat.New(m, thermostat.Config{
			SampleFraction: 0.05, Rng: simtime.Rand(benchSeed, "bench-th"),
		})
		if err != nil {
			b.Fatal(err)
		}
		tracker := kstaled.NewTracker(m, kstaled.Config{})
		for step := 1; step <= 30; step++ {
			now := time.Duration(step) * kstaled.DefaultScanPeriod
			det.BeginInterval()
			w.Tick(now, func(id mem.PageID, write bool) {
				det.OnAccess(id)
				m.Touch(id, write)
			})
			det.EndInterval()
			tracker.Scan()
		}
		_, faultCPU := det.InducedFaults()
		b.ReportMetric(float64(faultCPU.Microseconds()), "thermostatFaultCPU_us")
		b.ReportMetric(float64(tracker.CPUTime().Microseconds()), "kstaledScanCPU_us")
		truth := float64(tracker.Census().TailSum(1)) / float64(m.NumPages())
		b.ReportMetric(det.ColdFractionEstimate()*100, "thermostatColdEst_%")
		b.ReportMetric(truth*100, "kstaledColdTruth_%")
	}
}
