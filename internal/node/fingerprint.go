package node

import (
	"fmt"
	"io"
)

// WriteFingerprint writes a line-oriented rendering of everything
// observable about the machine: eviction/pressure/fault counters, pool
// statistics, and every job's cumulative accounting, memcg accounting,
// census, and promotion histograms. Two runs of the same seeded
// configuration must produce identical bytes; the cluster golden test,
// the worker-count determinism tests, and the chaos harness's
// nondeterminism detector all hash this exact format, so its bytes are
// load-bearing — extend it only behind the golden fingerprint.
func (m *Machine) WriteFingerprint(w io.Writer) {
	fmt.Fprintf(w, "machine %s now=%d evictions=%d limitKills=%d used=%d compressed=%d coldAtMin=%d\n",
		m.Name(), m.Now(), m.Evictions(), m.LimitKills(), m.UsedBytes(), m.CompressedPages(), m.ColdPagesAtMin())
	runs, stall := m.PressureEvents()
	fmt.Fprintf(w, "pressure runs=%d stall=%d\n", runs, stall)
	fmt.Fprintf(w, "faults %+v\n", m.FaultStats())
	fmt.Fprintf(w, "pool %+v\n", m.Tier().Stats())
	for _, j := range m.Jobs() {
		fmt.Fprintf(w, "job %s state=%d prio=%d prom=%d storedPages=%d storedBytes=%d cpu=%d compress=%d decompress=%d stall=%d\n",
			j.Memcg.Name(), j.State, j.Priority, j.Promotions, j.StoredPages, j.StoredBytes,
			j.CPUUsed, j.CompressCPU, j.DecompressCPU, j.StallTime)
		fmt.Fprintf(w, "memcg pages=%d resident=%d compressed=%d compressedBytes=%d usage=%d\n",
			j.Memcg.NumPages(), j.Memcg.Resident(), j.Memcg.Compressed(), j.Memcg.CompressedBytes(), j.Memcg.UsageBytes())
		fmt.Fprintf(w, "census %v\npromotions %v\nscans %d\n",
			j.Tracker.Census().Counts(), j.Tracker.Promotions().Counts(), j.Tracker.Scans())
	}
}
