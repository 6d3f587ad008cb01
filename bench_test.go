// Benchmarks that nothing else in the repository measures: the trace
// store's ingest and scan paths, the reclaim walk and one job-week of
// model replay. The paper's figures are printed by cmd/sdfm-experiments
// and asserted by the shape tests in internal/experiments; per-layer
// costs are rows of the bench/ ledger.
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
	"sdfm/internal/mem"
	"sdfm/internal/model"
	"sdfm/internal/pagedata"
	"sdfm/internal/telemetry"
	"sdfm/internal/tracestore"
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
	cfg := model.Config{Params: core.DefaultParams, SLO: core.DefaultSLO}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := model.Run(trace, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReclaimCold isolates the reclaim walk on a 256k-page memcg.
// "idle" is the common case — every page hot, nothing at or above the
// threshold; the walk-based implementation still visits all pages, the
// bucket index answers from 256 counters. "drained" is the steady state
// after reclaim: everything cold is already compressed, so eligibility
// checks find nothing new. "fill" is the cold-start pass that moves a
// whole cold memcg into an empty pool, where nearly all the time is page
// synthesis and compression; its ns/page falls as GOMAXPROCS rises.
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
	b.Run("fill", func(b *testing.B) {
		var stored int
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			m, r := build()
			for id := mem.PageID(0); int(id) < m.NumPages(); id++ {
				m.SetAge(id, 200)
			}
			b.StartTimer()
			stored = r.ReclaimCold(m, 120).Stored
		}
		if stored == 0 {
			b.Fatal("fill pass stored nothing")
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*pages), "ns/page")
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
