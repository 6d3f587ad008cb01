// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation (see the per-experiment index in DESIGN.md), plus
// micro-benchmarks of the substrates. Each figure benchmark regenerates
// the paper's rows at ScaleSmall and reports headline values as custom
// metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces the whole evaluation. Run individual figures with e.g.
// -bench=BenchmarkFig1.
package sdfm_test

import (
	"bytes"
	"testing"
	"time"

	"sdfm"
	"sdfm/internal/core"
	"sdfm/internal/experiments"
	"sdfm/internal/kreclaimd"
	"sdfm/internal/kstaled"
	"sdfm/internal/mem"
	"sdfm/internal/pagedata"
	"sdfm/internal/simtime"
	"sdfm/internal/telemetry"
	"sdfm/internal/thermostat"
	"sdfm/internal/tracestore"
	"sdfm/internal/zsmalloc"
	"sdfm/internal/zswap"
)

const benchSeed = 1

func BenchmarkFig1ColdMemoryVsThreshold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig1ColdMemoryVsThreshold(experiments.ScaleSmall, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Points[0].ColdFraction*100, "cold@120s_%")
		b.ReportMetric(r.Points[0].PromotionsPerMinPerColdByte*100, "coldAccess_%/min")
	}
}

func BenchmarkFig2ColdMemoryAcrossMachines(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig2ColdMemoryAcrossMachines(experiments.ScaleSmall, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.FleetMin*100, "machineColdMin_%")
		b.ReportMetric(r.FleetMax*100, "machineColdMax_%")
	}
}

func BenchmarkFig3ColdMemoryAcrossJobs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig3ColdMemoryAcrossJobs(experiments.ScaleSmall, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.P10*100, "jobColdP10_%")
		b.ReportMetric(r.P90*100, "jobColdP90_%")
	}
}

func BenchmarkFig5CoverageTimeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig5CoverageTimeline(experiments.ScaleSmall, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.ManualCoverage*100, "manualCoverage_%")
		b.ReportMetric(r.AutotunedCoverage*100, "autotunedCoverage_%")
		b.ReportMetric(r.ImprovementFrac*100, "improvement_%")
	}
}

func BenchmarkFig6CoverageAcrossMachines(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig6CoverageAcrossMachines(experiments.ScaleSmall, benchSeed,
			core.Params{K: 95, S: core.DefaultParams.S})
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Clusters) > 0 {
			b.ReportMetric(r.Clusters[0].Summary.Median*100, "cluster0MedianCoverage_%")
		}
	}
}

func BenchmarkFig7PromotionRateCDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig7PromotionRateCDF(experiments.ScaleSmall, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.BeforeP98*100, "beforeP98_%/min")
		b.ReportMetric(r.AfterP98*100, "afterP98_%/min")
	}
}

func BenchmarkFig8CPUOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig8CPUOverhead(experiments.ScaleSmall, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.JobCompressP98*100, "compressP98_%CPU")
		b.ReportMetric(r.JobDecompressP98*100, "decompressP98_%CPU")
	}
}

func BenchmarkFig9aCompressionRatio(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig9CompressionCharacteristics(experiments.ScaleSmall, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.RatioP50, "ratioP50_x")
		b.ReportMetric(r.IncompressibleFrac*100, "incompressible_%")
	}
}

func BenchmarkFig9bDecompressionLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig9CompressionCharacteristics(experiments.ScaleSmall, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.LatencyP50Us, "latencyP50_us")
		b.ReportMetric(r.LatencyP98Us, "latencyP98_us")
	}
}

func BenchmarkFig10BigtableAB(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig10BigtableAB(experiments.ScaleSmall, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.CoverageMax*100, "coverageMax_%")
		b.ReportMetric(r.IPCDeltaPct, "ipcDelta_%")
	}
}

func BenchmarkTCOSavings(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.H1TCOSavings(experiments.ScaleSmall, benchSeed, 3.0)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.SavingsFraction*100, "tcoSaved_%")
	}
}

func BenchmarkAutotunerVsHeuristic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.H2AutotunerVsHeuristic(experiments.ScaleSmall, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.ImprovementFrac*100, "improvement_%")
	}
}

func BenchmarkReactiveVsProactive(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.A1ReactiveVsProactive(experiments.ScaleSmall, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.ProactiveSavedBytesMean/(1<<20), "proactiveSaved_MiB")
		b.ReportMetric(float64(r.ReactiveBursts), "reactiveBursts")
	}
}

func BenchmarkZsmallocArenaAblation(b *testing.B) {
	// §5.1 ablation: fragmentation of one global arena vs many per-job
	// arenas for the same object population.
	for i := 0; i < b.N; i++ {
		const jobs, objsPerJob = 50, 7
		global := zsmalloc.New()
		perJob := make([]*zsmalloc.Arena, jobs)
		for j := range perJob {
			perJob[j] = zsmalloc.New()
		}
		size := 900
		for j := 0; j < jobs; j++ {
			for k := 0; k < objsPerJob; k++ {
				if _, err := global.Alloc(size, nil); err != nil {
					b.Fatal(err)
				}
				if _, err := perJob[j].Alloc(size, nil); err != nil {
					b.Fatal(err)
				}
			}
		}
		global.Compact()
		var phys, payload uint64
		for _, a := range perJob {
			a.Compact()
			st := a.Stats()
			phys += st.PhysicalBytes
			payload += st.PayloadBytes
		}
		b.ReportMetric(global.Stats().Fragmentation()*100, "globalFrag_%")
		b.ReportMetric((1-float64(payload)/float64(phys))*100, "perJobFrag_%")
	}
}

func BenchmarkKstaledOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.A3KstaledOverhead()
		for k, g := range r.MachineGiB {
			if g == 256 {
				b.ReportMetric(r.OverheadFrac[k]*100, "overhead256GiB_%core")
			}
		}
	}
}

// --- Substrate micro-benchmarks ---

// benchTrace builds the ScaleSmall-equivalent fleet trace the trace-store
// benchmarks share.
func benchTrace(b *testing.B) *sdfm.Trace {
	b.Helper()
	trace, err := sdfm.GenerateFleetTrace(sdfm.FleetConfig{
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
		if err := sdfm.WriteTraceStore(cw, trace); err != nil {
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
	if err := sdfm.WriteTraceStore(&buf, trace); err != nil {
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
	trace, err := sdfm.GenerateFleetTrace(sdfm.FleetConfig{
		Clusters: 1, MachinesPerCluster: 1, JobsPerMachine: 1,
		Duration: 7 * 24 * time.Hour, Seed: benchSeed, ChurnFraction: 0.0001,
	})
	if err != nil {
		b.Fatal(err)
	}
	cfg := sdfm.ModelConfig{Params: sdfm.DefaultParams, SLO: sdfm.DefaultSLO, Workers: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sdfm.Replay(trace, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKstaledScan(b *testing.B) {
	m, err := sdfm.NewMachine(sdfm.MachineConfig{
		Name: "bench", Cluster: "bench", DRAMBytes: 4 << 30,
		Mode: sdfm.ModeProactive, Params: sdfm.Params{K: 95, S: 10 * time.Minute},
		Seed: benchSeed,
	})
	if err != nil {
		b.Fatal(err)
	}
	w, err := sdfm.NewWorkload(sdfm.WorkloadConfig{
		Archetype: sdfm.KVCache, Name: "kv", Seed: benchSeed,
	})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := m.AddJob(w); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGPBanditIteration(b *testing.B) {
	obj := func(p sdfm.Params) (sdfm.FleetResult, error) {
		cov := (100 - p.K) / 100 * 0.3
		return sdfm.FleetResult{Coverage: cov, P98Rate: 0.001}, nil
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sdfm.Autotune(obj, sdfm.TunerConfig{
			SLO: sdfm.DefaultSLO, Seed: int64(i), Iterations: 10,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTieredFarMemory(b *testing.B) {
	// §8 extension ablation: single-tier zswap vs NVM tier-1 + zswap
	// tier-2 under the same control plane. Reports mean promotion latency
	// for each; the tiered configuration should win by absorbing
	// early-repromoted pages on the fast tier.
	run := func(tier sdfm.FarMemory, seed int64) (float64, error) {
		m, err := sdfm.NewMachine(sdfm.MachineConfig{
			Name: "bench", Cluster: "tiered", DRAMBytes: 4 << 30,
			Mode: sdfm.ModeProactive, Params: sdfm.Params{K: 90, S: 10 * time.Minute},
			Tier: tier, CollectSamples: true, Seed: seed,
		})
		if err != nil {
			return 0, err
		}
		w, err := sdfm.NewWorkload(sdfm.WorkloadConfig{
			Archetype: sdfm.BatchAnalytics, Name: "batch", Seed: seed,
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
	nvm := sdfm.ProfileNVM
	nvm.CapacityBytes = 64 << 20
	for i := 0; i < b.N; i++ {
		single, err := run(sdfm.NewPool(), benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		tiered, err := run(sdfm.NewTieredPool(nvm, sdfm.NewPool(), 30), benchSeed)
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
		w, err := sdfm.NewWorkload(sdfm.WorkloadConfig{
			Archetype: sdfm.LogProcessor, Name: "th", Seed: benchSeed,
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
