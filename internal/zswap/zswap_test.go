package zswap

import (
	"errors"
	"testing"
	"testing/quick"

	"sdfm/internal/compress"
	"sdfm/internal/mem"
	"sdfm/internal/pagedata"
)

func newMemcg(pages int, mix pagedata.Mix) *mem.Memcg {
	return mem.NewMemcg(mem.Config{Name: "job", Pages: pages, Mix: mix, SeedBase: 7})
}

func TestStoreLoadRoundTripValidated(t *testing.T) {
	p := NewPool(WithValidation())
	m := newMemcg(50, pagedata.NewMix(0, 1, 1, 1, 0)) // all compressible
	stored := 0
	for i := 0; i < 50; i++ {
		res := p.Store(m, mem.PageID(i))
		if res.Outcome != StoreOK {
			t.Fatalf("page %d: outcome %v", i, res.Outcome)
		}
		if res.Ratio <= 1 {
			t.Errorf("page %d: ratio %.2f", i, res.Ratio)
		}
		if res.CPUTime <= 0 {
			t.Error("store charged no CPU")
		}
		stored++
	}
	if m.Compressed() != stored {
		t.Fatalf("compressed = %d, want %d", m.Compressed(), stored)
	}
	for i := 0; i < 50; i++ {
		res, err := p.Load(m, mem.PageID(i))
		if err != nil {
			t.Fatalf("load %d: %v", i, err)
		}
		if res.CPUTime <= 0 || res.Latency <= 0 {
			t.Error("load charged no cost")
		}
	}
	if m.Compressed() != 0 || m.Resident() != 50 {
		t.Fatalf("after loads: resident=%d compressed=%d", m.Resident(), m.Compressed())
	}
	st := p.Stats()
	if st.StoredPages != 50 || st.LoadedPages != 50 || st.ValidationErrs != 0 {
		t.Errorf("stats: %+v", st)
	}
}

func TestStoreRejectsIncompressible(t *testing.T) {
	p := NewPool()
	m := newMemcg(10, pagedata.NewMix(0, 0, 0, 0, 1)) // all random
	res := p.Store(m, 0)
	if res.Outcome != StoreRejectedIncompressible {
		t.Fatalf("outcome = %v, want incompressible reject", res.Outcome)
	}
	if !m.Flags(0).Has(mem.FlagIncompressible) {
		t.Error("rejected page not marked incompressible")
	}
	if m.Flags(0).Has(mem.FlagCompressed) {
		t.Error("rejected page marked compressed")
	}
	if m.Resident() != 10 {
		t.Error("rejected page left resident accounting")
	}
	// The incompressible mark makes the page ineligible for another try.
	if m.Reclaimable(0) {
		t.Error("incompressible page still reclaimable")
	}
	// A write clears the mark and re-enables compression attempts.
	m.Touch(0, true)
	if !m.Reclaimable(0) {
		t.Error("dirtied page should be reclaimable again")
	}
}

func TestRejectCostsMoreThanStore(t *testing.T) {
	p := NewPool()
	mGood := newMemcg(1, pagedata.NewMix(0, 1, 0, 0, 0))
	mBad := newMemcg(1, pagedata.NewMix(0, 0, 0, 0, 1))
	ok := p.Store(mGood, 0)
	rej := p.Store(mBad, 0)
	if rej.CPUTime <= ok.CPUTime {
		t.Errorf("reject CPU %v should exceed accept CPU %v", rej.CPUTime, ok.CPUTime)
	}
}

func TestStoreNonReclaimablePanics(t *testing.T) {
	p := NewPool()
	m := newMemcg(1, pagedata.DefaultMix)
	m.SetFlags(0, mem.FlagMlocked)
	defer func() {
		if recover() == nil {
			t.Fatal("storing mlocked page did not panic")
		}
	}()
	p.Store(m, 0)
}

func TestLoadNonCompressedErrors(t *testing.T) {
	p := NewPool()
	m := newMemcg(1, pagedata.DefaultMix)
	if _, err := p.Load(m, 0); err == nil {
		t.Fatal("load of resident page succeeded")
	}
}

func TestCapacityLimit(t *testing.T) {
	// Capacity of one zspage: the pool must reject once full.
	p := NewPool(WithCapacity(16384))
	m := newMemcg(200, pagedata.NewMix(0, 1, 0, 0, 0))
	full := 0
	for i := 0; i < 200; i++ {
		res := p.Store(m, mem.PageID(i))
		if res.Outcome == StoreRejectedFull {
			full++
		}
	}
	if full == 0 {
		t.Fatal("capacity-limited pool never rejected")
	}
	if p.FootprintBytes() > 16384 {
		t.Errorf("footprint %d exceeds capacity", p.FootprintBytes())
	}
	if p.Stats().FullRejects != uint64(full) {
		t.Errorf("FullRejects = %d, want %d", p.Stats().FullRejects, full)
	}
}

func TestSavedBytes(t *testing.T) {
	p := NewPool()
	m := newMemcg(100, pagedata.NewMix(0, 0, 1, 0, 0)) // highly compressible
	for i := 0; i < 100; i++ {
		p.Store(m, mem.PageID(i))
	}
	saved := p.SavedBytes()
	if saved == 0 {
		t.Fatal("no savings from 100 structured pages")
	}
	// Savings cannot exceed the uncompressed size stored.
	if saved >= 100*mem.PageSize {
		t.Errorf("saved %d >= stored %d", saved, 100*mem.PageSize)
	}
	if p.FootprintBytes() == 0 {
		t.Error("compressed pool claims zero footprint")
	}
}

func TestDropDiscardsWithoutCost(t *testing.T) {
	p := NewPool()
	m := newMemcg(2, pagedata.NewMix(0, 1, 0, 0, 0))
	p.Store(m, 0)
	if err := p.Drop(m, 0); err != nil {
		t.Fatal(err)
	}
	if m.Compressed() != 0 {
		t.Error("drop did not restore accounting")
	}
	if p.Stats().LoadedPages != 0 {
		t.Error("drop counted as a load")
	}
	if err := p.Drop(m, 1); err == nil {
		t.Error("drop of resident page succeeded")
	}
}

func TestCompactAfterChurn(t *testing.T) {
	p := NewPool()
	m := newMemcg(500, pagedata.NewMix(0, 1, 1, 1, 0))
	for i := 0; i < 500; i++ {
		p.Store(m, mem.PageID(i))
	}
	// Promote most pages to create holes.
	for i := 0; i < 500; i++ {
		if i%5 != 0 {
			if m.Flags(mem.PageID(i)).Has(mem.FlagCompressed) {
				if _, err := p.Load(m, mem.PageID(i)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	before := p.FootprintBytes()
	reclaimed := p.Compact()
	after := p.FootprintBytes()
	if reclaimed == 0 {
		t.Error("compaction reclaimed nothing after heavy churn")
	}
	if after != before-reclaimed {
		t.Errorf("footprint %d != %d - %d", after, before, reclaimed)
	}
}

func TestCompressionRatioDistribution(t *testing.T) {
	// With the default fleet mix, accepted pages should land in the
	// paper's 2-6x band on average, and a meaningful fraction of pages
	// should be incompressible.
	p := NewPool()
	m := newMemcg(2000, pagedata.DefaultMix)
	accepted, rejects := 0, 0
	var compressedBytes uint64
	for i := 0; i < 2000; i++ {
		res := p.Store(m, mem.PageID(i))
		switch res.Outcome {
		case StoreOK:
			accepted++
			compressedBytes += uint64(res.CompressedSize)
		case StoreRejectedIncompressible:
			rejects++
		}
	}
	if accepted == 0 {
		t.Fatal("no pages accepted")
	}
	// Byte-weighted ratio over accepted pages, the savings-relevant
	// definition: the paper reports ~3x median, 2-6x across jobs.
	ratio := float64(accepted) * mem.PageSize / float64(compressedBytes)
	if ratio < 2 || ratio > 6.5 {
		t.Errorf("byte-weighted accepted ratio = %.2f, want in [2, 6.5]", ratio)
	}
	frac := float64(rejects) / 2000
	if frac < 0.15 || frac > 0.45 {
		t.Errorf("incompressible fraction = %.2f, want ~0.3", frac)
	}
}

func TestPoolDroppedPagesCounter(t *testing.T) {
	p := NewPool()
	m := newMemcg(50, pagedata.NewMix(0, 1, 1, 1, 0))
	stored := []mem.PageID{}
	for i := 0; i < 10; i++ {
		if p.Store(m, mem.PageID(i)).Outcome == StoreOK {
			stored = append(stored, mem.PageID(i))
		}
	}
	if len(stored) < 2 {
		t.Fatalf("fixture stored only %d pages", len(stored))
	}
	if err := p.Drop(m, stored[0]); err != nil {
		t.Fatal(err)
	}
	if p.DroppedPages() != 1 {
		t.Errorf("DroppedPages = %d, want 1", p.DroppedPages())
	}
	if p.Stats().LoadedPages != 0 {
		t.Errorf("drop counted as load: LoadedPages = %d", p.Stats().LoadedPages)
	}
	held := p.Stats().StoredPages - p.Stats().LoadedPages - p.DroppedPages()
	if held != uint64(m.Compressed()) {
		t.Errorf("held-page reconciliation: %d vs memcg %d", held, m.Compressed())
	}
}

func TestZeroFilledPages(t *testing.T) {
	p := NewPool(WithValidation())
	m := newMemcg(20, pagedata.NewMix(1, 0, 0, 0, 0)) // all zero pages
	for i := 0; i < 20; i++ {
		res := p.Store(m, mem.PageID(i))
		if res.Outcome != StoreZeroFilled {
			t.Fatalf("page %d: outcome %v, want zero-filled", i, res.Outcome)
		}
		if res.CPUTime != 0 {
			t.Error("zero-filled store charged compression CPU")
		}
	}
	st := p.Stats()
	if st.ZeroPages != 20 || st.StoredPages != 20 {
		t.Errorf("stats %+v", st)
	}
	// Zero pages occupy no arena space, so the whole footprint is saved.
	if p.FootprintBytes() != 0 {
		t.Errorf("footprint = %d, want 0", p.FootprintBytes())
	}
	if p.SavedBytes() != 20*mem.PageSize {
		t.Errorf("saved = %d, want %d", p.SavedBytes(), 20*mem.PageSize)
	}
	// Loads restore and validate.
	for i := 0; i < 20; i++ {
		lr, err := p.Load(m, mem.PageID(i))
		if err != nil {
			t.Fatal(err)
		}
		if lr.CPUTime <= 0 {
			t.Error("zero-filled load charged no fault overhead")
		}
	}
	if m.Compressed() != 0 {
		t.Error("accounting broken after zero-page loads")
	}
	if p.Stats().ValidationErrs != 0 {
		t.Error("validation errors on zero pages")
	}
}

func TestZeroFilledDrop(t *testing.T) {
	p := NewPool()
	m := newMemcg(2, pagedata.NewMix(1, 0, 0, 0, 0))
	p.Store(m, 0)
	if err := p.Drop(m, 0); err != nil {
		t.Fatal(err)
	}
	if m.Compressed() != 0 {
		t.Error("drop of zero page broke accounting")
	}
	if p.SavedBytes() != 0 {
		t.Errorf("saved = %d after drop", p.SavedBytes())
	}
}

func TestZeroPageDirtiedRecompresses(t *testing.T) {
	// A zero page that is written becomes non-zero content and must take
	// the regular compression path next time.
	p := NewPool()
	m := newMemcg(1, pagedata.NewMix(1, 0, 0, 0, 0))
	if res := p.Store(m, 0); res.Outcome != StoreZeroFilled {
		t.Fatalf("outcome %v", res.Outcome)
	}
	if _, err := p.Load(m, 0); err != nil {
		t.Fatal(err)
	}
	// Write: the seed changes, but the class is still zero, so content
	// stays zero; flip the class to simulate real data landing there.
	m.Meta(0).Class = pagedata.ClassText
	m.Touch(0, true)
	m.ClearFlags(0, mem.FlagAccessed)
	res := p.Store(m, 0)
	if res.Outcome != StoreOK {
		t.Fatalf("rewritten page outcome %v, want StoreOK", res.Outcome)
	}
	if res.CompressedSize == 0 {
		t.Error("rewritten page has no payload")
	}
}

func TestPoolInvariantsQuick(t *testing.T) {
	// Property: under arbitrary store/load/drop/compact sequences, the
	// pool and memcg accounting stay consistent: resident + compressed ==
	// total, footprint matches the arena, and SavedBytes never exceeds
	// what was stored.
	f := func(ops []uint16, seed int64) bool {
		p := NewPool(WithValidation())
		m := mem.NewMemcg(mem.Config{
			Name: "q", Pages: 64, Mix: pagedata.DefaultMix, SeedBase: uint64(seed),
		})
		for _, op := range ops {
			id := mem.PageID(op % 64)
			switch op % 4 {
			case 0:
				if m.Reclaimable(id) {
					p.Store(m, id)
				}
			case 1:
				if m.Flags(id).Has(mem.FlagCompressed) {
					if _, err := p.Load(m, id); err != nil {
						return false
					}
				}
			case 2:
				if m.Flags(id).Has(mem.FlagCompressed) {
					if err := p.Drop(m, id); err != nil {
						return false
					}
				}
			case 3:
				p.Compact()
			}
			if m.Resident()+m.Compressed() != m.NumPages() {
				return false
			}
			if p.Stats().ValidationErrs != 0 {
				return false
			}
			compressedBytes := uint64(m.Compressed()) * mem.PageSize
			if p.SavedBytes() > compressedBytes {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestLoadValidatedCorruptPayload(t *testing.T) {
	// With validation on, a payload that does not decode to the page's
	// content must error rather than silently promote.
	p := NewPool(WithValidation())
	m := newMemcg(2, pagedata.NewMix(0, 1, 0, 0, 0))
	if res := p.Store(m, 0); res.Outcome != StoreOK {
		t.Fatalf("store: %v", res.Outcome)
	}
	// Corrupt the page's seed after storing: decompressed bytes will no
	// longer match the regenerated content.
	m.Meta(0).Seed ^= 0xDEAD
	if _, err := p.Load(m, 0); err == nil {
		t.Fatal("content mismatch not detected")
	}
	if p.Stats().ValidationErrs == 0 {
		t.Error("validation error not counted")
	}
}

func TestIsZeroFilled(t *testing.T) {
	// Lengths on both sides of the 8-byte step, with the one nonzero byte
	// at every position.
	for n := 0; n <= 25; n++ {
		b := make([]byte, n)
		if !isZeroFilled(b) {
			t.Errorf("%d zero bytes reported as not zero-filled", n)
		}
		for i := range b {
			b[i] = 1
			if isZeroFilled(b) {
				t.Errorf("len %d with byte %d set reported as zero-filled", n, i)
			}
			b[i] = 0
		}
	}
}

// freshSize is what a store of page id would compress to now: the
// compressed size of its current content, or 0 for a zero-filled page.
func freshSize(m *mem.Memcg, id mem.PageID) int {
	page := make([]byte, mem.PageSize)
	meta := m.Meta(id)
	pagedata.Generate(page, meta.Class, meta.Seed)
	if isZeroFilled(page) {
		return 0
	}
	return len(compress.Compress(nil, page))
}

func TestStoreReusesSizeUntilWritten(t *testing.T) {
	p := NewPool()
	m := newMemcg(4, pagedata.NewMix(0, 1, 1, 1, 0))
	first := p.Store(m, 0)
	if first.Outcome != StoreOK || first.CompressedSize != freshSize(m, 0) {
		t.Fatalf("first store %+v, fresh size %d", first, freshSize(m, 0))
	}
	if got := m.Meta(0).MemoSize; int(got) != first.CompressedSize {
		t.Fatalf("memo %d after store of %d bytes", got, first.CompressedSize)
	}
	if _, err := p.Load(m, 0); err != nil {
		t.Fatal(err)
	}
	if got := m.Meta(0).MemoSize; int(got) != first.CompressedSize {
		t.Fatalf("memo %d after promotion, want %d", got, first.CompressedSize)
	}
	again := p.Store(m, 0)
	if again.Outcome != first.Outcome || again.CompressedSize != first.CompressedSize ||
		again.Ratio != first.Ratio || again.CPUTime != first.CPUTime {
		t.Fatalf("re-store of unwritten page %+v, first store %+v", again, first)
	}
	if _, err := p.Load(m, 0); err != nil {
		t.Fatal(err)
	}

	m.Touch(0, true)
	if got := m.Meta(0).MemoSize; got != 0 {
		t.Fatalf("memo %d survived a write", got)
	}
	want := freshSize(m, 0)
	if want == first.CompressedSize {
		t.Fatal("fixture: the write did not change the compressed size")
	}
	res := p.Store(m, 0)
	if res.CompressedSize != want || int(m.Meta(0).MemoSize) != want {
		t.Errorf("store after write: %d bytes, memo %d; new content compresses to %d",
			res.CompressedSize, m.Meta(0).MemoSize, want)
	}
	if m.CompressedBytes() != uint64(want) {
		t.Errorf("memcg holds %d compressed bytes, want %d", m.CompressedBytes(), want)
	}
}

// TestValidationChecksRecordedSize changes a page's content behind mem's
// back, so its recorded size is stale: a plain pool trusts the record (the
// store skips compression), a validating pool compresses anyway and counts
// the disagreement, also when the new content is zero-filled.
func TestValidationChecksRecordedSize(t *testing.T) {
	for _, tc := range []struct {
		name   string
		change func(*mem.PageMeta)
		want   StoreOutcome // of the validating pool
	}{
		{"new seed", func(mt *mem.PageMeta) { mt.Seed++ }, StoreOK},
		{"zero-filled", func(mt *mem.PageMeta) { mt.Class = pagedata.ClassZero }, StoreZeroFilled},
	} {
		for _, validate := range []bool{false, true} {
			var opts []Option
			if validate {
				opts = append(opts, WithValidation())
			}
			p := NewPool(opts...)
			m := newMemcg(4, pagedata.NewMix(0, 1, 1, 1, 0))
			recorded := p.Store(m, 0).CompressedSize
			if _, err := p.Load(m, 0); err != nil {
				t.Fatal(err)
			}
			tc.change(m.Meta(0))
			want := freshSize(m, 0)
			if want == recorded {
				t.Fatalf("%s: fixture: the new content compresses to the recorded size", tc.name)
			}
			res := p.Store(m, 0)
			errs := p.Stats().ValidationErrs
			switch {
			case !validate && (res.Outcome != StoreOK || res.CompressedSize != recorded || errs != 0):
				t.Errorf("%s: plain pool stored %v of %d bytes with %d validation errors, want the recorded %d and none",
					tc.name, res.Outcome, res.CompressedSize, errs, recorded)
			case validate && (res.Outcome != tc.want || res.CompressedSize != want || errs != 1):
				t.Errorf("%s: validating pool stored %v of %d bytes with %d validation errors, want %v of %d and 1",
					tc.name, res.Outcome, res.CompressedSize, errs, tc.want, want)
			}
		}
	}
}

// FuzzStoreSizeMemo drives the same operation sequence over two identical
// memcgs, one behind a validating pool (which compresses on every store)
// and one behind a plain pool (which reuses recorded sizes, and is also
// primed), and holds every store to a fresh compression of the page's
// current content.
func FuzzStoreSizeMemo(f *testing.F) {
	f.Add([]byte{0, 6, 1, 0, 3, 0, 12, 4}, uint64(7), uint8(0))
	f.Add([]byte{0, 1, 0, 3, 0, 2, 0, 6, 7, 6, 1, 6}, uint64(1), uint8(3))
	f.Add([]byte{18, 19, 18, 4, 21, 18, 20, 18}, uint64(99), uint8(1))
	f.Add([]byte{5, 0, 6, 12, 18, 9, 11, 6, 7, 6}, uint64(3), uint8(2))
	const pages = 32
	f.Fuzz(func(t *testing.T, ops []byte, seed uint64, capPages uint8) {
		if len(ops) > 512 {
			ops = ops[:512]
		}
		cfg := mem.Config{Name: "f", Pages: pages, Mix: pagedata.DefaultMix, SeedBase: seed}
		capacity := WithCapacity(uint64(capPages) * mem.PageSize)
		pv, mv := NewPool(WithValidation(), capacity), mem.NewMemcg(cfg)
		pp, mp := NewPool(capacity), mem.NewMemcg(cfg)
		for step, b := range ops {
			id := mem.PageID(int(b/6) % pages)
			compressed := mv.Flags(id).Has(mem.FlagCompressed)
			switch b % 6 {
			case 0: // store
				if !mv.Reclaimable(id) {
					continue
				}
				want := freshSize(mv, id)
				rv, rp := pv.Store(mv, id), pp.Store(mp, id)
				if rv.Outcome != rp.Outcome || rv.CompressedSize != rp.CompressedSize || rv.Ratio != rp.Ratio ||
					rv.CPUTime != rp.CPUTime || (rv.Err == nil) != (rp.Err == nil) {
					t.Fatalf("step %d: store of page %d: validating %+v, plain %+v", step, id, rv, rp)
				}
				switch {
				case want == 0 && rv.Outcome != StoreZeroFilled:
					t.Fatalf("step %d: zero-filled page %d stored as %+v", step, id, rv)
				case want > DefaultCutoff && rv.Outcome != StoreRejectedIncompressible:
					t.Fatalf("step %d: page %d compresses to %d, stored as %+v", step, id, want, rv)
				case want != 0 && want <= DefaultCutoff && rv.Outcome != StoreOK && rv.Outcome != StoreRejectedFull:
					t.Fatalf("step %d: page %d compresses to %d, stored as %+v", step, id, want, rv)
				case rv.CompressedSize != want:
					t.Fatalf("step %d: page %d compresses to %d, store reports %d", step, id, want, rv.CompressedSize)
				}
			case 1: // load
				if !compressed {
					continue
				}
				_, ev := pv.Load(mv, id)
				_, ep := pp.Load(mp, id)
				if ev != nil || ep != nil {
					t.Fatalf("step %d: load of page %d: %v / %v", step, id, ev, ep)
				}
			case 2: // drop
				if !compressed {
					continue
				}
				if err := errors.Join(pv.Drop(mv, id), pp.Drop(mp, id)); err != nil {
					t.Fatalf("step %d: drop of page %d: %v", step, id, err)
				}
			case 3: // write; a compressed page faults in first, as on a machine
				if compressed {
					if _, err := pv.Load(mv, id); err != nil {
						t.Fatal(err)
					}
					if _, err := pp.Load(mp, id); err != nil {
						t.Fatal(err)
					}
				}
				mv.Touch(id, true)
				mp.Touch(id, true)
			case 4:
				if cv, cp := pv.Compact(), pp.Compact(); cv != cp {
					t.Fatalf("step %d: compaction reclaimed %d vs %d bytes", step, cv, cp)
				}
			case 5: // prime the plain side's reclaimable pages from id on
				var ids []mem.PageID
				for i := id; i < pages; i++ {
					if mp.Reclaimable(i) {
						ids = append(ids, i)
					}
				}
				pp.prime(mp, ids, 1+int(id)%4, 1+int(id)%3)
				for _, i := range ids {
					if got, want := int(mp.Meta(i).MemoSize), freshSize(mp, i); got != want {
						t.Fatalf("step %d: page %d primed to %d, compresses to %d", step, i, got, want)
					}
				}
			}
			if sv, sp := pv.Stats(), pp.Stats(); sv != sp || sv.ValidationErrs != 0 {
				t.Fatalf("step %d: stats diverged: validating %+v, plain %+v", step, sv, sp)
			}
			if mv.CompressedBytes() != mp.CompressedBytes() || mv.Flags(id) != mp.Flags(id) {
				t.Fatalf("step %d: page %d diverged", step, id)
			}
		}
	})
}

// TestPrimeRecordsFreshSizes primes most pages of a mixed memcg over small
// chunks on one to three workers. Every listed page must then carry its
// fresh compressed size, zero-filled pages must stay unrecorded, a size
// already recorded must be kept, unlisted pages must stay unknown, and
// the pool itself must be untouched.
func TestPrimeRecordsFreshSizes(t *testing.T) {
	const pages, kept = 203, mem.PageID(2)
	for _, chunk := range []int{1, 7, 16} {
		for workers := 1; workers <= 3; workers++ {
			p := NewPool()
			m := newMemcg(pages, pagedata.DefaultMix)
			var ids []mem.PageID
			for id := mem.PageID(0); id < pages; id++ {
				if id%9 != 4 {
					ids = append(ids, id)
				}
			}
			if len(ids)%chunk == 0 && chunk > 1 {
				t.Fatalf("fixture: %d listed pages fill whole %d-page chunks", len(ids), chunk)
			}
			m.Meta(kept).MemoSize = 1
			p.prime(m, ids, chunk, workers)

			var zero, rejected int
			for id := mem.PageID(0); id < pages; id++ {
				got, want := int(m.Meta(id).MemoSize), freshSize(m, id)
				switch {
				case id == kept:
					want = 1
				case id%9 == 4:
					want = 0
				case want == 0:
					zero++
				case want > DefaultCutoff:
					rejected++
				}
				if got != want {
					t.Fatalf("chunk %d, %d workers: page %d records %d, want %d", chunk, workers, id, got, want)
				}
			}
			if zero == 0 || rejected == 0 {
				t.Fatalf("fixture: %d zero-filled and %d incompressible listed pages, want some of each", zero, rejected)
			}
			if p.Stats() != (Stats{}) || p.ArenaStats().Objects != 0 || m.Compressed() != 0 {
				t.Fatalf("chunk %d, %d workers: priming changed the pool or memcg: %+v", chunk, workers, p.Stats())
			}
		}
	}
}
