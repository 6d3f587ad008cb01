// Package kreclaimd implements the cold-page reclaimer daemon (§5.1).
//
// Once the node agent has set a job's cold-age threshold, kreclaimd walks
// the job's pages and moves every eligible page whose age meets or exceeds
// the threshold into far memory. Only LRU-eligible pages are considered:
// mlocked, unevictable, already-compressed, and known-incompressible pages
// are skipped, preventing wasted cycles on unmovable pages. kreclaimd runs
// in slack cycles as an unobtrusive background task; its CPU consumption
// is whatever the far-memory tier's Store charges.
package kreclaimd

import (
	"fmt"
	"time"

	"sdfm/internal/mem"
	"sdfm/internal/obs"
	"sdfm/internal/zswap"
)

// Metrics is the set of obs instruments the reclaimer reports into,
// labelled by reclaim kind ("proactive" for SLO-driven ReclaimCold,
// "pressure" for reactive direct reclaim). Nil disables instrumentation.
type Metrics struct {
	proactive reclaimMetrics
	pressure  reclaimMetrics
}

type reclaimMetrics struct {
	passes     *obs.Counter
	stored     *obs.Counter
	rejected   *obs.Counter
	poolFull   *obs.Counter
	errored    *obs.Counter
	bytes      *obs.Counter
	cpuSeconds *obs.Counter
}

// NewMetrics registers the reclaimer instruments on o (nil o → nil).
func NewMetrics(o *obs.Observer) *Metrics {
	if o == nil {
		return nil
	}
	reg := func(kind string) reclaimMetrics {
		l := obs.Label{Key: "kind", Value: kind}
		return reclaimMetrics{
			passes:     o.Counter("sdfm_kreclaimd_passes_total", "Reclaim passes run.", l),
			stored:     o.Counter("sdfm_kreclaimd_stored_pages_total", "Pages moved to far memory.", l),
			rejected:   o.Counter("sdfm_kreclaimd_rejected_pages_total", "Pages marked incompressible.", l),
			poolFull:   o.Counter("sdfm_kreclaimd_pool_full_total", "Pages refused for tier capacity.", l),
			errored:    o.Counter("sdfm_kreclaimd_errored_pages_total", "Pages left resident by a transient store failure.", l),
			bytes:      o.Counter("sdfm_kreclaimd_stored_bytes_total", "Compressed payload bytes written.", l),
			cpuSeconds: o.Counter("sdfm_kreclaimd_cpu_seconds_total", "Compression cycles charged to reclaim.", l),
		}
	}
	return &Metrics{proactive: reg("proactive"), pressure: reg("pressure")}
}

func (mx *Metrics) observe(res Result, pressure bool) {
	if mx == nil {
		return
	}
	rm := &mx.proactive
	if pressure {
		rm = &mx.pressure
	}
	rm.passes.Inc()
	rm.stored.AddInt(res.Stored)
	rm.rejected.AddInt(res.Rejected)
	rm.poolFull.AddInt(res.PoolFull)
	rm.errored.AddInt(res.Errored)
	rm.bytes.Add(float64(res.StoredBytes))
	rm.cpuSeconds.Add(res.CPUTime.Seconds())
}

// Result summarizes one reclaim pass. Every eligible page ends in exactly
// one outcome: Eligible == Stored + Rejected + PoolFull + Errored.
type Result struct {
	Scanned     int           // pages examined
	Eligible    int           // pages past the threshold and reclaimable
	Stored      int           // pages moved to far memory
	Rejected    int           // pages marked incompressible this pass
	PoolFull    int           // pages refused for capacity
	Errored     int           // pages left resident by a transient store failure
	StoredBytes uint64        // compressed payload bytes written
	CPUTime     time.Duration // compression cycles charged
}

// count files one eligible page's store under its outcome and reports
// whether the page left near memory.
func (res *Result) count(sr zswap.StoreResult) bool {
	res.Eligible++
	res.CPUTime += sr.CPUTime
	switch sr.Outcome {
	case zswap.StoreOK, zswap.StoreZeroFilled:
		res.Stored++
		res.StoredBytes += uint64(sr.CompressedSize)
		return true
	case zswap.StoreRejectedIncompressible:
		res.Rejected++
	case zswap.StoreRejectedFull:
		res.PoolFull++
	case zswap.StoreErrored:
		res.Errored++
	default:
		panic(fmt.Sprintf("kreclaimd: unknown store outcome %d", sr.Outcome))
	}
	return false
}

// Reclaimer moves cold pages into a far-memory tier.
type Reclaimer struct {
	tier zswap.FarMemory
	// ids is the reusable candidate-gather buffer, so steady-state reclaim
	// passes allocate nothing.
	ids []mem.PageID
	mx  *Metrics
}

// New creates a reclaimer backed by tier.
func New(tier zswap.FarMemory) *Reclaimer {
	return &Reclaimer{tier: tier}
}

// SetMetrics attaches obs instruments (nil detaches). Observation-only.
func (r *Reclaimer) SetMetrics(mx *Metrics) { r.mx = mx }

// ReclaimCold compresses every reclaimable page of m whose age is at least
// thresholdBucket scan periods. Pages whose accessed bit is currently set
// are skipped (they were touched since the last scan and will be re-aged).
func (r *Reclaimer) ReclaimCold(m *mem.Memcg, thresholdBucket int) Result {
	res := Result{Scanned: m.NumPages()}
	// The age-bucket index proves the common cases — nothing cold enough,
	// or everything cold already compressed — in at most 256 reads; only
	// when candidates exist does a walk gather them — over the
	// flag-eligible pages of the blocks whose bound admits a page that old,
	// one comparison for every other block — in ascending page order (store
	// order decides zsmalloc placement and where a full pool cuts the
	// pass), before any store mutates the flags column. Scanned stays the
	// whole memcg, which is what the kernel walks.
	r.ids = m.AppendColdReclaimable(r.ids[:0], thresholdBucket)
	for _, id := range r.ids {
		res.count(r.tier.Store(m, id))
	}
	r.mx.observe(res, false)
	return res
}

// ReclaimUnderPressure is the *reactive* baseline the paper compares
// against (§3.2): stock zswap triggered only on direct reclaim, which
// compresses pages coldest-first until targetBytes of near memory have
// been freed, regardless of any SLO. It stalls the faulting application
// for the full compression time, which is why the paper's deployment of
// this mode showed noticeable performance degradation.
func (r *Reclaimer) ReclaimUnderPressure(m *mem.Memcg, targetBytes uint64) Result {
	var res Result
	var freed uint64
	// Coldest-first: iterate ages from MaxAge down to 0, visiting only the
	// buckets the reclaim index shows non-empty; within a bucket, pages go
	// in ascending order, accessed bit notwithstanding (direct reclaim is
	// indiscriminate).
	for age := mem.MaxAge; age >= 0 && freed < targetBytes; age-- {
		r.ids = m.AppendReclaimableAt(r.ids[:0], uint8(age))
		for _, id := range r.ids {
			if freed >= targetBytes {
				break
			}
			if res.count(r.tier.Store(m, id)) {
				freed += mem.PageSize
			}
		}
	}
	res.Scanned = m.NumPages()
	r.mx.observe(res, true)
	return res
}
