// Package kstaled implements the page-age scanner daemon (§5.1).
//
// kstaled periodically walks a job's pages, reading and clearing the MMU
// accessed bit to maintain an 8-bit age per page (in scan periods). On
// every scan it rebuilds the job's cold-age census (how many pages have
// been idle for each age) and appends to the job's cumulative promotion
// histogram (the age each page had reached when it was accessed again).
// The node agent consumes both to run the threshold controller.
package kstaled

import (
	"time"

	"sdfm/internal/histogram"
	"sdfm/internal/mem"
	"sdfm/internal/obs"
)

// Metrics is the set of obs instruments the scanner reports into. One
// Metrics is shared by every Tracker of a machine (trackers come and go
// with jobs and crashes; the counters are machine-lifetime). All methods
// tolerate a nil receiver, which disables instrumentation.
type Metrics struct {
	scans        *obs.Counter
	pagesScanned *obs.Counter
	cpuSeconds   *obs.Counter
	promotions   *obs.Counter
}

// NewMetrics registers the scanner instruments on o (nil o → nil Metrics).
func NewMetrics(o *obs.Observer) *Metrics {
	if o == nil {
		return nil
	}
	return &Metrics{
		scans:        o.Counter("sdfm_kstaled_scans_total", "Completed kstaled scan passes."),
		pagesScanned: o.Counter("sdfm_kstaled_pages_scanned_total", "Pages examined by kstaled scans."),
		cpuSeconds:   o.Counter("sdfm_kstaled_cpu_seconds_total", "Modelled kstaled scanner CPU."),
		promotions:   o.Counter("sdfm_kstaled_promotions_total", "Accessed-bit promotions harvested by scans."),
	}
}

func (mx *Metrics) onScan(pages int, cpu time.Duration, promos uint64) {
	if mx == nil {
		return
	}
	mx.scans.Inc()
	mx.pagesScanned.AddInt(pages)
	mx.cpuSeconds.Add(cpu.Seconds())
	mx.promotions.Add(float64(promos))
}

// DefaultScanPeriod matches the production configuration: 120 s, tuned to
// keep kstaled under ~11% of one logical core.
const DefaultScanPeriod = histogram.DefaultScanPeriod

// DefaultCostPerPage is the modelled CPU cost of examining one page's PTEs
// during a scan (page-table walk plus accessed-bit clear and TLB
// considerations on Haswell-class hardware).
const DefaultCostPerPage = 150 * time.Nanosecond

// Tracker maintains age state and histograms for one memcg.
type Tracker struct {
	m *mem.Memcg

	promotions *histogram.Histogram // cumulative age-at-access counts
	census     *histogram.Histogram // age distribution as of the last scan
	scans      uint64
	cpu        time.Duration
	mx         *Metrics
}

// NewTracker creates a tracker for m. The initial census reflects the
// memcg's starting state (all pages age 0). mx, shared across a machine's
// trackers, receives scan observations; nil disables instrumentation.
func NewTracker(m *mem.Memcg, mx *Metrics) *Tracker {
	t := &Tracker{
		m:          m,
		promotions: histogram.New(DefaultScanPeriod),
		census:     histogram.New(DefaultScanPeriod),
		mx:         mx,
	}
	t.census.Add(0, uint64(m.NumPages()))
	return t
}

// Scan performs one kstaled pass over the memcg: mem.ScanAges ages every
// page by advancing the memcg's scan epoch and harvests the accessed bits
// of the pages that have one set, keeping the age histograms current; the
// cold-age census is then installed wholesale from the bucket counts, and
// the age-at-access tallies are folded into the cumulative promotion
// histogram. The modelled CPU is that of the kernel's walk — every page's
// PTEs, touched or not — whatever the simulator's own bookkeeping costs.
func (t *Tracker) Scan() {
	var promos [mem.NumAges]uint64
	t.m.ScanAges(&promos)
	var promoSum uint64
	for b, n := range promos {
		if n != 0 {
			t.promotions.Add(b, n)
			promoSum += n
		}
	}
	t.census.SetCounts(t.m.AgeCounts())
	t.scans++
	cost := time.Duration(t.m.NumPages()) * DefaultCostPerPage
	t.cpu += cost
	t.mx.onScan(t.m.NumPages(), cost, promoSum)
}

// RecordPromotionFault accounts an actual promotion (a fault on a
// compressed page) in the promotion histogram at the age the page had
// reached. The node layer calls this before zswap.Load resets the page.
func (t *Tracker) RecordPromotionFault(age uint8) {
	t.promotions.Add(int(age), 1)
}

// Census returns the age census from the last scan. The caller must not
// retain the pointer across scans (Scan rebuilds it in place); clone if
// needed.
func (t *Tracker) Census() *histogram.Histogram { return t.census }

// Promotions returns the cumulative promotion histogram. Callers diff
// snapshots of it to obtain per-interval promotion counts.
func (t *Tracker) Promotions() *histogram.Histogram { return t.promotions }

// Scans returns the number of completed scans.
func (t *Tracker) Scans() uint64 { return t.scans }

// CPUTime returns the total modelled scanner CPU time.
func (t *Tracker) CPUTime() time.Duration { return t.cpu }

// OverheadOfOneCore returns the scanner's modelled utilization of a single
// logical core: the fraction of wall time spent scanning, given pages are
// scanned once per period. The paper reports < 11% for production
// machines.
func OverheadOfOneCore(pages int, costPerPage, scanPeriod time.Duration) float64 {
	if scanPeriod <= 0 {
		return 0
	}
	return float64(time.Duration(pages)*costPerPage) / float64(scanPeriod)
}

// DefaultCPUBudget is the scanner's CPU budget as a fraction of one
// logical core (the paper's "less than 11%").
const DefaultCPUBudget = 0.11

// RecommendScanPeriod returns the shortest scan period that keeps the
// scanner within budgetFrac of one core for a machine of the given page
// count, clamped to [minPeriod, maxPeriod]. This is the §5.1 trade-off —
// finer-grained access information versus CPU — expressed as a policy:
// small machines can afford faster scans; very large machines must slow
// down to stay inside the budget.
func RecommendScanPeriod(pages int, budgetFrac float64, costPerPage, minPeriod, maxPeriod time.Duration) time.Duration {
	if budgetFrac <= 0 || pages <= 0 {
		return maxPeriod
	}
	scanTime := time.Duration(pages) * costPerPage
	period := time.Duration(float64(scanTime) / budgetFrac)
	if period < minPeriod {
		return minPeriod
	}
	if period > maxPeriod {
		return maxPeriod
	}
	return period
}
