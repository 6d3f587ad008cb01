package mem

import (
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"

	"sdfm/internal/pagedata"
	"sdfm/internal/zsmalloc"
)

func newTestMemcg(pages int) *Memcg {
	return NewMemcg(Config{
		Name:     "test",
		Pages:    pages,
		Mix:      pagedata.DefaultMix,
		SeedBase: 42,
	})
}

func TestNewMemcgBasics(t *testing.T) {
	m := newTestMemcg(100)
	if m.Name() != "test" || m.NumPages() != 100 {
		t.Fatalf("name=%q pages=%d", m.Name(), m.NumPages())
	}
	if m.Resident() != 100 || m.Compressed() != 0 {
		t.Fatalf("resident=%d compressed=%d", m.Resident(), m.Compressed())
	}
	if m.ResidentBytes() != 100*PageSize {
		t.Fatalf("ResidentBytes = %d", m.ResidentBytes())
	}
	if got := m.AgeCounts(); got[0] != 100 {
		t.Fatalf("age bucket 0 holds %d pages, want 100", got[0])
	}
	if err := m.VerifyIndexes(); err != nil {
		t.Fatal(err)
	}
}

func TestNewMemcgZeroPagesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("0-page memcg did not panic")
		}
	}()
	NewMemcg(Config{Name: "x", Pages: 0, Mix: pagedata.DefaultMix})
}

func TestPageSeedsAndClassesVary(t *testing.T) {
	m := newTestMemcg(1000)
	seeds := map[uint64]bool{}
	classes := map[pagedata.Class]int{}
	for id := PageID(0); int(id) < m.NumPages(); id++ {
		seeds[m.Meta(id).Seed] = true
		classes[m.Meta(id).Class]++
	}
	if len(seeds) != 1000 {
		t.Errorf("only %d distinct seeds across 1000 pages", len(seeds))
	}
	if len(classes) < 3 {
		t.Errorf("only %d classes represented: %v", len(classes), classes)
	}
}

func TestMemcgsDiffer(t *testing.T) {
	a := NewMemcg(Config{Name: "a", Pages: 10, Mix: pagedata.DefaultMix, SeedBase: 1})
	b := NewMemcg(Config{Name: "b", Pages: 10, Mix: pagedata.DefaultMix, SeedBase: 2})
	if a.Meta(0).Seed == b.Meta(0).Seed {
		t.Error("different seed bases produced identical page seeds")
	}
}

func TestTouchSetsAccessed(t *testing.T) {
	m := newTestMemcg(4)
	m.Touch(2, false)
	if !m.Flags(2).Has(FlagAccessed) {
		t.Error("accessed bit not set")
	}
	if m.Flags(2).Has(FlagDirty) {
		t.Error("read set dirty bit")
	}
}

func TestTouchWriteDirtiesAndReseedsPage(t *testing.T) {
	m := newTestMemcg(4)
	before := m.Meta(1).Seed
	m.SetFlags(1, FlagIncompressible)
	m.Touch(1, true)
	if !m.Flags(1).Has(FlagDirty) {
		t.Error("write did not set dirty")
	}
	if m.Flags(1).Has(FlagIncompressible) {
		t.Error("write did not clear incompressible mark")
	}
	if m.Meta(1).Seed == before {
		t.Error("write did not change content seed")
	}
	if err := m.VerifyIndexes(); err != nil {
		t.Error(err)
	}
}

// TestMemoSizeLifetime pins who clears PageMeta.MemoSize: a write does,
// next to the seed bump; reads, the far-memory round trip and a restart
// do not, because none of them changes the page's content.
func TestMemoSizeLifetime(t *testing.T) {
	m := newTestMemcg(4)
	for id := PageID(0); id < 4; id++ {
		if got := m.Meta(id).MemoSize; got != 0 {
			t.Fatalf("new page %d starts with memo %d", id, got)
		}
	}
	m.Meta(1).MemoSize = 1234
	m.Touch(1, false)
	m.MarkCompressed(1, zsmalloc.Handle(7), 1234)
	m.MarkPromoted(1)
	m.MarkCompressed(1, zsmalloc.Handle(8), PageSize)
	m.MarkPromoted(1)
	m.ResetAges()
	if got := m.Meta(1).MemoSize; got != 1234 {
		t.Fatalf("memo %d after read, round trips and restart, want 1234", got)
	}
	m.Touch(1, true)
	if got := m.Meta(1).MemoSize; got != 0 {
		t.Errorf("write left memo %d", got)
	}
	if id := m.Grow(3); m.Meta(id).MemoSize != 0 || m.Meta(id+2).MemoSize != 0 {
		t.Error("grown page starts with a memo")
	}
}

// TestPageMetaSize keeps the memoised size in PageMeta's former tail
// padding: the cold column costs 32 bytes a page (mem.heap_bytes_per_page).
func TestPageMetaSize(t *testing.T) {
	if got := unsafe.Sizeof(PageMeta{}); got != 32 {
		t.Errorf("PageMeta is %d bytes, want 32", got)
	}
}

func TestCompressPromoteCycle(t *testing.T) {
	m := newTestMemcg(10)
	m.MarkCompressed(3, zsmalloc.Handle(7), 1200)
	if m.Resident() != 9 || m.Compressed() != 1 {
		t.Fatalf("resident=%d compressed=%d", m.Resident(), m.Compressed())
	}
	if !m.Flags(3).Has(FlagCompressed) || m.Meta(3).Handle != 7 || m.Meta(3).CompressedSize != 1200 {
		t.Fatalf("page state: flags=%b meta=%+v", m.Flags(3), *m.Meta(3))
	}
	if m.CompressedBytes() != 1200 {
		t.Errorf("CompressedBytes = %d", m.CompressedBytes())
	}
	if ids := m.AppendCompressed(nil); len(ids) != 1 || ids[0] != 3 {
		t.Errorf("AppendCompressed = %v, want [3]", ids)
	}

	m.SetAge(3, 50)
	m.MarkPromoted(3)
	if m.Resident() != 10 || m.Compressed() != 0 {
		t.Fatalf("after promote: resident=%d compressed=%d", m.Resident(), m.Compressed())
	}
	if m.Flags(3).Has(FlagCompressed) || m.Age(3) != 0 || !m.Flags(3).Has(FlagAccessed) {
		t.Errorf("promoted page state: flags=%b age=%d", m.Flags(3), m.Age(3))
	}
	if m.Meta(3).Handle != zsmalloc.InvalidHandle || m.Meta(3).CompressedSize != 0 {
		t.Errorf("promoted page kept handle: %+v", *m.Meta(3))
	}
	if m.CompressedBytes() != 0 {
		t.Errorf("CompressedBytes after promote = %d", m.CompressedBytes())
	}
	if ids := m.AppendCompressed(nil); len(ids) != 0 {
		t.Errorf("AppendCompressed after promote = %v, want empty", ids)
	}
	if err := m.VerifyIndexes(); err != nil {
		t.Error(err)
	}
}

func TestDoubleCompressPanics(t *testing.T) {
	m := newTestMemcg(2)
	m.MarkCompressed(0, 1, 100)
	defer func() {
		if recover() == nil {
			t.Fatal("double compress did not panic")
		}
	}()
	m.MarkCompressed(0, 2, 100)
}

func TestPromoteResidentPanics(t *testing.T) {
	m := newTestMemcg(2)
	defer func() {
		if recover() == nil {
			t.Fatal("promoting resident page did not panic")
		}
	}()
	m.MarkPromoted(0)
}

func TestMlockedFraction(t *testing.T) {
	m := NewMemcg(Config{
		Name: "x", Pages: 100, Mix: pagedata.DefaultMix, MlockedFraction: 0.1,
	})
	locked := 0
	for id := PageID(0); int(id) < m.NumPages(); id++ {
		if m.Flags(id).Has(FlagMlocked) {
			locked++
		}
	}
	if locked != 10 {
		t.Errorf("locked = %d, want 10", locked)
	}
	if err := m.VerifyIndexes(); err != nil {
		t.Error(err)
	}
}

func TestFlagOps(t *testing.T) {
	m := newTestMemcg(1)
	m.SetFlags(0, FlagAccessed|FlagDirty)
	if !m.Flags(0).Has(FlagAccessed) || !m.Flags(0).Has(FlagDirty) {
		t.Error("SetFlags/Has broken")
	}
	m.ClearFlags(0, FlagAccessed)
	if m.Flags(0).Has(FlagAccessed) || !m.Flags(0).Has(FlagDirty) {
		t.Error("ClearFlags broken")
	}
	if m.Flags(0).Has(FlagAccessed | FlagDirty) {
		t.Error("Has with multiple flags should require all")
	}
}

func TestScanAgesMatchesKstaledSemantics(t *testing.T) {
	m := newTestMemcg(6)
	m.Touch(0, false)              // accessed resident: records age, resets
	m.SetAge(1, 7)                 // idle resident: ages to 8
	m.SetAge(2, MaxAge)            // saturated: stays at MaxAge
	m.MarkCompressed(3, 9, 100)    // compressed: ages without accessed harvest
	m.SetAge(4, 3)                 //
	m.Touch(4, false)              // accessed at age 3: promo bucket 3
	m.SetFlags(5, FlagUnevictable) // idle, never reclaimable
	var promos [NumAges]uint64
	m.ScanAges(&promos)
	if promos[0] != 1 || promos[3] != 1 {
		t.Errorf("promotion tallies = bucket0:%d bucket3:%d, want 1 and 1", promos[0], promos[3])
	}
	wantAges := []uint8{0, 8, MaxAge, 1, 0, 1}
	for id, want := range wantAges {
		if got := m.Age(PageID(id)); got != want {
			t.Errorf("page %d age = %d, want %d", id, got, want)
		}
	}
	if m.Flags(0).Has(FlagAccessed) || m.Flags(4).Has(FlagAccessed) {
		t.Error("scan did not clear harvested accessed bits")
	}
	if err := m.VerifyIndexes(); err != nil {
		t.Error(err)
	}
}

func TestResetAges(t *testing.T) {
	m := NewMemcg(Config{
		Name: "x", Pages: 20, Mix: pagedata.DefaultMix, MlockedFraction: 0.25,
	})
	for id := PageID(0); id < 20; id++ {
		m.SetAge(id, uint8(id*7))
	}
	m.Touch(3, false)
	m.SetFlags(5, FlagIncompressible)
	m.ResetAges()
	for id := PageID(0); id < 20; id++ {
		if m.Age(id) != 0 {
			t.Fatalf("page %d age %d after reset", id, m.Age(id))
		}
		if m.Flags(id)&(FlagAccessed|FlagIncompressible) != 0 {
			t.Fatalf("page %d kept accessed/incompressible after reset", id)
		}
	}
	if !m.Flags(0).Has(FlagMlocked) {
		t.Error("reset dropped the mlocked marking")
	}
	if err := m.VerifyIndexes(); err != nil {
		t.Error(err)
	}
}

func TestAppendColdReclaimable(t *testing.T) {
	m := newTestMemcg(10)
	for id := PageID(0); id < 10; id++ {
		m.SetAge(id, uint8(id*10))
	}
	m.Touch(8, false)           // accessed: skipped by cold reclaim
	m.MarkCompressed(9, 1, 100) // already in far memory: skipped
	m.SetFlags(7, FlagMlocked)  // pinned: skipped
	m.SetFlags(3, FlagUnevictable)
	for _, c := range []struct {
		id   PageID
		want bool
	}{{0, true}, {3, false}, {7, false}, {8, true}, {9, false}} {
		if got := m.Reclaimable(c.id); got != c.want {
			t.Errorf("Reclaimable(%d) with flags %b = %v, want %v", c.id, m.Flags(c.id), got, c.want)
		}
	}
	got := m.AppendColdReclaimable(nil, 50)
	want := []PageID{5, 6}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("AppendColdReclaimable = %v, want %v", got, want)
	}
	if ids := m.AppendColdReclaimable(nil, 95); len(ids) != 0 {
		t.Errorf("tail above every age returned %v", ids)
	}
	if at := m.AppendReclaimableAt(nil, 80); len(at) != 1 || at[0] != 8 {
		t.Errorf("AppendReclaimableAt(80) = %v, want [8] (accessed bit must not filter)", at)
	}
}

func TestAccountingInvariantQuick(t *testing.T) {
	// Property: resident + compressed == total across arbitrary
	// compress/promote sequences.
	f := func(ops []uint8) bool {
		m := newTestMemcg(16)
		for _, op := range ops {
			id := PageID(op % 16)
			if op%2 == 0 {
				if m.Reclaimable(id) {
					m.MarkCompressed(id, zsmalloc.Handle(op)+1, 500)
				}
			} else {
				if m.Flags(id).Has(FlagCompressed) {
					m.MarkPromoted(id)
				}
			}
			if m.Resident()+m.Compressed() != m.NumPages() {
				return false
			}
			if m.Resident() < 0 || m.Compressed() < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestIndexesAgreeWithRecount drives a memcg through long randomized
// sequences of every mutating operation — touches, scans, growth,
// compression, promotion, flag flips, and crash resets — and checks after
// each that the incrementally-maintained bucket indexes agree with a
// brute-force recount of the columns.
func TestIndexesAgreeWithRecount(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := NewMemcg(Config{
			Name: "prop", Pages: 64, Mix: pagedata.DefaultMix,
			SeedBase: uint64(seed), MlockedFraction: 0.1,
		})
		var promos [NumAges]uint64
		for step := 0; step < 400; step++ {
			id := PageID(rng.Intn(m.NumPages()))
			switch rng.Intn(10) {
			case 0:
				m.Grow(1 + rng.Intn(3))
			case 1, 2:
				if m.Flags(id).Has(FlagCompressed) {
					m.MarkPromoted(id)
				}
				m.Touch(id, rng.Intn(2) == 0)
			case 3:
				if m.Reclaimable(id) {
					m.MarkCompressed(id, zsmalloc.Handle(step)+1, rng.Intn(2990))
				}
			case 4:
				if m.Flags(id).Has(FlagCompressed) {
					m.MarkPromoted(id)
				}
			case 5:
				m.ScanAges(&promos)
			case 6:
				m.SetAge(id, uint8(rng.Intn(NumAges)))
			case 7:
				m.SetFlags(id, FlagIncompressible)
			case 8:
				m.ClearFlags(id, FlagIncompressible|FlagAccessed)
			case 9:
				if rng.Intn(20) == 0 {
					// Crash path: far memory evaporates, then ages reset.
					for _, cid := range m.AppendCompressed(nil) {
						m.MarkPromoted(cid)
					}
					m.ResetAges()
				}
			}
			if err := m.VerifyIndexes(); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
		}
	}
}
