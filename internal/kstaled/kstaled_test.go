package kstaled

import (
	"testing"
	"time"

	"sdfm/internal/histogram"
	"sdfm/internal/mem"
	"sdfm/internal/pagedata"
	"sdfm/internal/zswap"
)

func newJob(pages int) *mem.Memcg {
	return mem.NewMemcg(mem.Config{
		Name: "job", Pages: pages, Mix: pagedata.DefaultMix, SeedBase: 3,
	})
}

func TestNewTrackerInitialCensus(t *testing.T) {
	m := newJob(100)
	tr := NewTracker(m)
	if got := tr.Census().BucketFor(DefaultScanPeriod); got != 1 {
		t.Errorf("census bucket of one scan period = %d, want 1", got)
	}
	if got := tr.Census().Count(0); got != 100 {
		t.Errorf("initial census bucket 0 = %d, want 100", got)
	}
	if tr.m != m {
		t.Error("tracked memcg mismatch")
	}
}

func TestScanAgesIdlePages(t *testing.T) {
	m := newJob(10)
	tr := NewTracker(m)
	tr.Scan()
	// Nothing touched: every page is now age 1.
	if got := tr.Census().Count(1); got != 10 {
		t.Errorf("census bucket 1 = %d, want 10", got)
	}
	tr.Scan()
	tr.Scan()
	if got := tr.Census().Count(3); got != 10 {
		t.Errorf("census bucket 3 = %d, want 10", got)
	}
	if tr.Scans() != 3 {
		t.Errorf("Scans = %d", tr.Scans())
	}
}

func TestScanResetsAccessedPages(t *testing.T) {
	m := newJob(10)
	tr := NewTracker(m)
	tr.Scan()
	tr.Scan() // all pages age 2
	m.Touch(4, false)
	tr.Scan()
	if got := tr.Census().Count(0); got != 1 {
		t.Errorf("census bucket 0 = %d, want 1", got)
	}
	if got := tr.Census().Count(3); got != 9 {
		t.Errorf("census bucket 3 = %d, want 9", got)
	}
	if m.Flags(4).Has(mem.FlagAccessed) {
		t.Error("accessed bit not cleared by scan")
	}
	// The promotion histogram recorded age-at-access = 2.
	if got := tr.Promotions().Count(2); got != 1 {
		t.Errorf("promotion count at age 2 = %d, want 1", got)
	}
}

func TestScanPaperExample(t *testing.T) {
	// §4.3 example with scan-quantized ages: page A idle 5 periods, page B
	// idle 10 periods, both accessed during the most recent period.
	m := newJob(2)
	tr := NewTracker(m)
	for i := 0; i < 5; i++ {
		tr.Scan()
	}
	m.Touch(0, false) // A accessed at age 5
	for i := 0; i < 5; i++ {
		tr.Scan()
	}
	m.Touch(1, false) // B accessed at age 10
	tr.Scan()
	// Promotion histogram: A at age 5, B at age 10.
	if got := tr.Promotions().Count(5); got != 1 {
		t.Errorf("promotions at age 5 = %d, want 1", got)
	}
	if got := tr.Promotions().Count(10); got != 1 {
		t.Errorf("promotions at age 10 = %d, want 1", got)
	}
	// Under T = 8 periods only B counts; under T = 2 both count.
	if got := tr.Promotions().TailSum(8); got != 1 {
		t.Errorf("promotions under T=8 = %d, want 1", got)
	}
	if got := tr.Promotions().TailSum(2); got != 2 {
		t.Errorf("promotions under T=2 = %d, want 2", got)
	}
}

func TestScanAgeSaturates(t *testing.T) {
	m := newJob(2)
	tr := NewTracker(m)
	for i := 0; i < 300; i++ {
		tr.Scan()
	}
	if got := m.Age(0); got != mem.MaxAge {
		t.Errorf("age = %d, want saturated %d", got, mem.MaxAge)
	}
	if got := tr.Census().Count(histogram.MaxBucket); got != 2 {
		t.Errorf("census at max bucket = %d, want 2", got)
	}
}

func TestScanCompressedPagesKeepAging(t *testing.T) {
	m := newJob(10)
	pool := zswap.NewPool()
	tr := NewTracker(m)
	tr.Scan()
	tr.Scan()
	// Compress page 0 (age 2).
	if res := pool.Store(m, 0); res.Outcome != zswap.StoreOK {
		// Incompressible page in the mix; pick one that works.
		for i := 1; i < 10; i++ {
			if pool.Store(m, mem.PageID(i)).Outcome == zswap.StoreOK {
				break
			}
		}
	}
	var compressedID mem.PageID
	found := false
	for id := mem.PageID(0); int(id) < m.NumPages(); id++ {
		if m.Flags(id).Has(mem.FlagCompressed) {
			compressedID = id
			found = true
			break
		}
	}
	if !found {
		t.Skip("no page compressed (all incompressible in this mix)")
	}
	before := m.Age(compressedID)
	tr.Scan()
	if got := m.Age(compressedID); got != before+1 {
		t.Errorf("compressed page age = %d, want %d", got, before+1)
	}
}

func TestRecordPromotionFault(t *testing.T) {
	m := newJob(4)
	tr := NewTracker(m)
	m.SetAge(0, 42)
	tr.RecordPromotionFault(m.Age(0))
	if got := tr.Promotions().Count(42); got != 1 {
		t.Errorf("promotion at age 42 = %d, want 1", got)
	}
}

func TestCPUAccounting(t *testing.T) {
	m := newJob(1000)
	tr := NewTracker(m)
	if got := tr.Scan(); got != (ScanResult{Pages: 1000, CPUTime: 150 * time.Microsecond}) {
		t.Errorf("first scan = %+v, want 1000 pages, 150µs, no promotions", got)
	}
	if got := tr.CPUTime(); got != 150*time.Microsecond {
		t.Errorf("CPUTime = %v, want 150µs", got)
	}
	m.Touch(1, false)
	m.Touch(2, true)
	if got := tr.Scan(); got != (ScanResult{Pages: 1000, CPUTime: 150 * time.Microsecond, Promotions: 2}) {
		t.Errorf("second scan = %+v, want 1000 pages, 150µs, 2 promotions", got)
	}
	if got := tr.Promotions().Total(); got != 2 {
		t.Errorf("promotion histogram total = %d, want the 2 harvested", got)
	}
}

func TestOverheadOfOneCore(t *testing.T) {
	// A 256 GiB machine has 67.1M pages; at 150 ns/page over 120 s the
	// paper's < 11%-of-one-core budget must hold.
	pages := 256 << 30 / mem.PageSize
	got := OverheadOfOneCore(pages, DefaultCostPerPage, DefaultScanPeriod)
	if got >= 0.11 {
		t.Errorf("scanner overhead = %.3f of one core, want < 0.11", got)
	}
	if got < 0.01 {
		t.Errorf("scanner overhead = %.4f suspiciously low for 256 GiB", got)
	}
	if OverheadOfOneCore(100, DefaultCostPerPage, 0) != 0 {
		t.Error("zero scan period should report 0")
	}
}

func TestWorkingSetFromCensus(t *testing.T) {
	// After a scan, bucket 0 of the census is exactly the set of pages
	// accessed during the last period: the paper's WSS definition.
	m := newJob(50)
	tr := NewTracker(m)
	tr.Scan()
	for i := 0; i < 20; i++ {
		m.Touch(mem.PageID(i), false)
	}
	tr.Scan()
	if got := tr.Census().Count(0); got != 20 {
		t.Errorf("WSS = %d pages, want 20", got)
	}
}

func TestRecommendScanPeriod(t *testing.T) {
	min, max := 30*time.Second, 10*time.Minute
	// A 256 GiB machine at the default budget stays at or under the
	// production 120 s period.
	pages256 := 256 << 30 / mem.PageSize
	p := RecommendScanPeriod(pages256, DefaultCPUBudget, DefaultCostPerPage, min, max)
	if p > DefaultScanPeriod {
		t.Errorf("256 GiB period = %v, want <= 120 s", p)
	}
	if got := OverheadOfOneCore(pages256, DefaultCostPerPage, p); got > DefaultCPUBudget+1e-9 {
		t.Errorf("recommended period busts the budget: %.3f", got)
	}
	// A 2 TiB machine must slow down relative to 256 GiB.
	pages2T := 2 << 40 / mem.PageSize
	p2 := RecommendScanPeriod(pages2T, DefaultCPUBudget, DefaultCostPerPage, min, max)
	if p2 <= p {
		t.Errorf("2 TiB period %v should exceed 256 GiB period %v", p2, p)
	}
	// Tiny machines clamp to the minimum period.
	if got := RecommendScanPeriod(1000, DefaultCPUBudget, DefaultCostPerPage, min, max); got != min {
		t.Errorf("tiny machine period = %v, want clamp to %v", got, min)
	}
	// Degenerate inputs fall back to the maximum (safest) period.
	if got := RecommendScanPeriod(0, DefaultCPUBudget, DefaultCostPerPage, min, max); got != max {
		t.Errorf("zero pages period = %v, want max", got)
	}
	if got := RecommendScanPeriod(1000, 0, DefaultCostPerPage, min, max); got != max {
		t.Errorf("zero budget period = %v, want max", got)
	}
}
