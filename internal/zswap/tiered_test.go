package zswap

import (
	"testing"

	"sdfm/internal/mem"
	"sdfm/internal/pagedata"
)

func tieredFixture(capacityPages int) (*TieredPool, *mem.Memcg) {
	profile := ProfileNVM
	profile.CapacityBytes = uint64(capacityPages) * mem.PageSize
	t := NewTieredPool(profile, NewPool(), 10)
	m := newMemcg(100, pagedata.NewMix(0, 1, 1, 1, 0))
	return t, m
}

func TestTieredPlacementByAge(t *testing.T) {
	tp, m := tieredFixture(50)
	// Mildly cold page -> tier 1; deeply cold page -> tier 2.
	m.SetAge(0, 5)
	m.SetAge(1, 100)
	if res := tp.Store(m, 0); res.Outcome != StoreOK || res.CompressedSize != mem.PageSize {
		t.Fatalf("mildly cold page placement: %+v", res)
	}
	if res := tp.Store(m, 1); res.Outcome != StoreOK || res.CompressedSize >= mem.PageSize {
		t.Fatalf("deeply cold page placement: %+v", res)
	}
	if tp.Tier1().UsedBytes() != mem.PageSize {
		t.Errorf("tier1 used = %d", tp.Tier1().UsedBytes())
	}
	if tp.Tier2().FootprintBytes() == 0 {
		t.Error("tier2 holds nothing")
	}
}

func TestTieredLoadRoutesToRightTier(t *testing.T) {
	tp, m := tieredFixture(50)
	m.SetAge(0, 5)
	m.SetAge(1, 100)
	tp.Store(m, 0)
	tp.Store(m, 1)

	fast, err := tp.Load(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := tp.Load(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Tier-1 promotions are DMA (no CPU) at the device read latency;
	// tier-2 promotions burn decompression CPU.
	if fast.CPUTime != 0 || fast.Latency != ProfileNVM.ReadLatency {
		t.Errorf("tier1 load: %+v", fast)
	}
	if slow.CPUTime == 0 {
		t.Errorf("tier2 load charged no CPU: %+v", slow)
	}
	if slow.Latency <= fast.Latency {
		t.Errorf("tier2 latency %v should exceed tier1 %v", slow.Latency, fast.Latency)
	}
	if m.Compressed() != 0 {
		t.Error("accounting broken after tiered loads")
	}
}

func TestTieredSpillToTier2WhenTier1Full(t *testing.T) {
	tp, m := tieredFixture(3) // tiny tier 1
	for i := 0; i < 10; i++ {
		m.SetAge(mem.PageID(i), 5) // all prefer tier 1
		if res := tp.Store(m, mem.PageID(i)); res.Outcome != StoreOK {
			t.Fatalf("page %d: %+v", i, res)
		}
	}
	if tp.Tier1().UsedBytes() != 3*mem.PageSize {
		t.Errorf("tier1 used = %d, want full", tp.Tier1().UsedBytes())
	}
	if tp.Tier2().ArenaStats().Objects != 7 {
		t.Errorf("tier2 objects = %d, want 7 spilled", tp.Tier2().ArenaStats().Objects)
	}
	// All ten pages promote correctly.
	for i := 0; i < 10; i++ {
		if _, err := tp.Load(m, mem.PageID(i)); err != nil {
			t.Fatalf("load %d: %v", i, err)
		}
	}
}

func TestTieredStats(t *testing.T) {
	tp, m := tieredFixture(2)
	for i := 0; i < 6; i++ {
		m.SetAge(mem.PageID(i), 5)
		tp.Store(m, mem.PageID(i))
	}
	st := tp.Stats()
	if st.StoredPages != 6 {
		t.Errorf("StoredPages = %d", st.StoredPages)
	}
	if st.FullRejects == 0 {
		t.Error("tier1 overflow not recorded")
	}
	// DRAM footprint comes only from the compressed tier.
	if tp.FootprintBytes() != tp.Tier2().FootprintBytes() {
		t.Error("footprint should be tier2 only")
	}
}

func TestTieredDrop(t *testing.T) {
	tp, m := tieredFixture(50)
	m.SetAge(0, 5)
	m.SetAge(1, 100)
	tp.Store(m, 0)
	tp.Store(m, 1)
	if err := tp.Drop(m, 0); err != nil {
		t.Fatal(err)
	}
	if err := tp.Drop(m, 1); err != nil {
		t.Fatal(err)
	}
	if m.Compressed() != 0 {
		t.Error("drop accounting broken")
	}
	if err := tp.Drop(m, 2); err == nil {
		t.Error("drop of resident page succeeded")
	}
}

// Regression: a tier-1 drop used to route through DevicePool.Load,
// counting the free as a promotion in LoadedPages.
func TestTieredDropDoesNotInflateLoads(t *testing.T) {
	tp, m := tieredFixture(50)
	m.SetAge(0, 5)   // tier 1
	m.SetAge(1, 100) // tier 2
	tp.Store(m, 0)
	tp.Store(m, 1)
	if err := tp.Drop(m, 0); err != nil {
		t.Fatal(err)
	}
	if err := tp.Drop(m, 1); err != nil {
		t.Fatal(err)
	}
	if st := tp.Stats(); st.LoadedPages != 0 {
		t.Errorf("LoadedPages = %d after drops, want 0", st.LoadedPages)
	}
	if tp.DroppedPages() != 2 {
		t.Errorf("DroppedPages = %d, want 2", tp.DroppedPages())
	}
	if tp.Tier1().UsedBytes() != 0 {
		t.Errorf("tier1 used = %d after drop", tp.Tier1().UsedBytes())
	}
	// Dropped tier-1 pages are reclaimable again, like Pool.Drop leaves them.
	if !m.Reclaimable(0) {
		t.Errorf("dropped tier-1 page not reclaimable: flags %b", m.Flags(0))
	}
}

func TestTieredLoadErrors(t *testing.T) {
	tp, m := tieredFixture(50)
	if _, err := tp.Load(m, 0); err == nil {
		t.Error("load of resident page succeeded")
	}
}

func TestTieredIncompressibleStillRejected(t *testing.T) {
	// Deeply cold random pages go to tier2 and get the incompressible
	// mark as usual.
	profile := ProfileNVM
	profile.CapacityBytes = 10 * mem.PageSize
	tp := NewTieredPool(profile, NewPool(), 10)
	m := newMemcg(5, pagedata.NewMix(0, 0, 0, 0, 1))
	m.SetAge(0, 200)
	if res := tp.Store(m, 0); res.Outcome != StoreRejectedIncompressible {
		t.Fatalf("outcome %v", res.Outcome)
	}
	// A mildly cold incompressible page still fits tier1 (no compression
	// there).
	m.Touch(1, true)
	m.ClearFlags(1, mem.FlagAccessed)
	m.SetAge(1, 5)
	if res := tp.Store(m, 1); res.Outcome != StoreOK {
		t.Fatalf("tier1 should accept incompressible content: %v", res.Outcome)
	}
}

func TestTieredNilTier2Defaults(t *testing.T) {
	tp := NewTieredPool(ProfileNVM, nil, 10)
	if tp.Tier2() == nil {
		t.Fatal("nil tier2 not defaulted")
	}
}

func TestTieredCompactForwards(t *testing.T) {
	tp, m := tieredFixture(50)
	// Fill tier2 with deep-cold pages, promote most, then compact.
	for i := 0; i < 60; i++ {
		m.SetAge(mem.PageID(i), 100)
		tp.Store(m, mem.PageID(i))
	}
	for i := 0; i < 60; i++ {
		if i%4 != 0 && m.Flags(mem.PageID(i)).Has(mem.FlagCompressed) {
			if _, err := tp.Load(m, mem.PageID(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := tp.Compact(); got == 0 {
		t.Error("tiered compaction reclaimed nothing after churn")
	}
}

func TestDeviceProfileAccessor(t *testing.T) {
	d := NewDevicePool(ProfileZSSD)
	if d.Profile().Name != "z-ssd" {
		t.Errorf("Profile = %+v", d.Profile())
	}
}

// TestTieredSpillAfterTier1Promotion offers a page to tier-2 after it has
// been held whole on tier-1: the device's CompressedSize == PageSize must
// not stand in for the page's compressed size, or tier-2 would reject a
// compressible page as incompressible.
func TestTieredSpillAfterTier1Promotion(t *testing.T) {
	tp, m := tieredFixture(50)
	m.SetAge(0, 5)
	if res := tp.Store(m, 0); res.Outcome != StoreOK || res.CompressedSize != mem.PageSize {
		t.Fatalf("tier-1 store: %+v", res)
	}
	if _, err := tp.Load(m, 0); err != nil {
		t.Fatal(err)
	}
	m.SetAge(0, 100)
	want := freshSize(m, 0)
	res := tp.Store(m, 0)
	if res.Outcome != StoreOK || res.CompressedSize != want {
		t.Fatalf("tier-2 store after tier-1 promotion: %+v, page compresses to %d", res, want)
	}
	if tp.Tier2().ArenaStats().Objects != 1 || m.Flags(0).Has(mem.FlagIncompressible) {
		t.Error("page did not land on tier-2")
	}
}
