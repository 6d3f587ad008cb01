package mem

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"sdfm/internal/pagedata"
	"sdfm/internal/zsmalloc"
)

// refMemcg is the page-state half of the memcg as it was before lazy
// aging, kept as the test-only oracle: an ages column written on every
// scan, a frozen age plus a per-page epoch for compressed pages, the two
// resident indexes rebuilt by every scan, and byte-wise candidate sweeps.
// The method bodies are the old ones with the content metadata (seeds,
// classes, handles, byte accounting) left out; ScanAges is the old sweep's
// per-page loop without its eight-at-a-time skip over compressed pages.
type refMemcg struct {
	flags      []uint8
	ages       []uint8
	epoch      []uint64
	compressed int

	ageCounts      [NumAges]uint64
	reclaimAges    [NumAges]uint64
	scanEpoch      uint64
	compressedAges [NumAges]uint64
}

// newRefMemcg mirrors a freshly built Memcg: same page count, same
// mlocked pages, everything at age 0.
func newRefMemcg(m *Memcg) *refMemcg {
	r := &refMemcg{
		flags: slices.Clone(m.flags),
		ages:  make([]uint8, len(m.flags)),
		epoch: make([]uint64, len(m.flags)),
	}
	r.ageCounts[0] = uint64(len(r.flags))
	for _, f := range r.flags {
		if PageFlags(f)&reclaimMask == 0 {
			r.reclaimAges[0]++
		}
	}
	return r
}

func (m *refMemcg) Grow(n int) {
	for i := 0; i < n; i++ {
		m.flags = append(m.flags, uint8(FlagAccessed|FlagDirty))
		m.ages = append(m.ages, 0)
		m.epoch = append(m.epoch, 0)
	}
	m.ageCounts[0] += uint64(n)
	m.reclaimAges[0] += uint64(n)
}

func (m *refMemcg) Age(id PageID) uint8 {
	if m.flags[id]&uint8(FlagCompressed) == 0 {
		return m.ages[id]
	}
	a := uint64(m.ages[id]) + (m.scanEpoch - m.epoch[id])
	if a > MaxAge {
		return MaxAge
	}
	return uint8(a)
}

func (m *refMemcg) fixReclaim(id PageID, before, after PageFlags) {
	was, is := before&reclaimMask == 0, after&reclaimMask == 0
	if was == is {
		return
	}
	if is {
		m.reclaimAges[m.ages[id]]++
	} else {
		m.reclaimAges[m.ages[id]]--
	}
}

func (m *refMemcg) SetFlags(id PageID, f PageFlags) {
	before := PageFlags(m.flags[id])
	after := before | f
	m.flags[id] = uint8(after)
	m.fixReclaim(id, before, after)
}

func (m *refMemcg) ClearFlags(id PageID, f PageFlags) {
	before := PageFlags(m.flags[id])
	after := before &^ f
	m.flags[id] = uint8(after)
	m.fixReclaim(id, before, after)
}

func (m *refMemcg) SetAge(id PageID, age uint8) {
	if m.flags[id]&uint8(FlagCompressed) != 0 {
		old := m.Age(id)
		m.ages[id] = age
		m.epoch[id] = m.scanEpoch
		if old == age {
			return
		}
		m.ageCounts[old]--
		m.ageCounts[age]++
		m.compressedAges[old]--
		m.compressedAges[age]++
		return
	}
	old := m.ages[id]
	if old == age {
		return
	}
	m.ages[id] = age
	m.ageCounts[old]--
	m.ageCounts[age]++
	if m.flags[id]&uint8(reclaimMask) == 0 {
		m.reclaimAges[old]--
		m.reclaimAges[age]++
	}
}

func (m *refMemcg) Touch(id PageID, write bool) {
	before := PageFlags(m.flags[id])
	after := before | FlagAccessed
	if write {
		after = (after | FlagDirty) &^ FlagIncompressible
	}
	m.flags[id] = uint8(after)
	m.fixReclaim(id, before, after)
}

func (m *refMemcg) MarkCompressed(id PageID) {
	before := PageFlags(m.flags[id])
	after := (before | FlagCompressed) &^ FlagDirty
	m.flags[id] = uint8(after)
	m.fixReclaim(id, before, after)
	m.epoch[id] = m.scanEpoch
	m.compressedAges[m.ages[id]]++
	m.compressed++
}

func (m *refMemcg) MarkPromoted(id PageID) {
	before := PageFlags(m.flags[id])
	old := m.Age(id)
	after := (before &^ FlagCompressed) | FlagAccessed
	m.flags[id] = uint8(after)
	m.ages[id] = 0
	m.compressedAges[old]--
	m.ageCounts[old]--
	m.ageCounts[0]++
	if after&reclaimMask == 0 {
		m.reclaimAges[0]++
	}
	m.compressed--
}

func (m *refMemcg) ScanAges(promos *[NumAges]uint64) {
	m.scanEpoch++
	ca := &m.compressedAges
	ca[MaxAge] += ca[MaxAge-1]
	for a := MaxAge - 1; a >= 1; a-- {
		ca[a] = ca[a-1]
	}
	ca[0] = 0

	var ageCounts, reclaimAges [NumAges]uint64
	flags, ages := m.flags, m.ages
	for i := range flags {
		f := PageFlags(flags[i])
		if f&FlagCompressed != 0 {
			continue
		}
		a := ages[i]
		if f&FlagAccessed != 0 {
			promos[a]++
			a = 0
			ages[i] = 0
			f &^= FlagAccessed
			flags[i] = uint8(f)
		} else if a < MaxAge {
			a++
			ages[i] = a
		}
		ageCounts[a]++
		if f&reclaimMask == 0 {
			reclaimAges[a]++
		}
	}
	for a := 0; a < NumAges; a++ {
		ageCounts[a] += ca[a]
	}
	m.ageCounts = ageCounts
	m.reclaimAges = reclaimAges
}

func (m *refMemcg) ReclaimTail(threshold int) uint64 {
	if threshold < 0 {
		threshold = 0
	}
	var s uint64
	for a := threshold; a < NumAges; a++ {
		s += m.reclaimAges[a]
	}
	return s
}

func (m *refMemcg) AppendColdReclaimable(dst []PageID, threshold int) []PageID {
	if threshold > MaxAge || m.ReclaimTail(threshold) == 0 {
		return dst
	}
	th := uint8(0)
	if threshold > 0 {
		th = uint8(threshold)
	}
	flags, ages := m.flags, m.ages
	for i := range ages {
		if flags[i]&uint8(reclaimMask|FlagAccessed) == 0 && ages[i] >= th {
			dst = append(dst, PageID(i))
		}
	}
	return dst
}

func (m *refMemcg) AppendReclaimableAt(dst []PageID, age uint8) []PageID {
	if m.reclaimAges[age] == 0 {
		return dst
	}
	flags, ages := m.flags, m.ages
	for i := range ages {
		if flags[i]&uint8(reclaimMask) == 0 && ages[i] == age {
			dst = append(dst, PageID(i))
		}
	}
	return dst
}

func (m *refMemcg) ResetAges() {
	reclaimable := uint64(0)
	for i, fb := range m.flags {
		f := PageFlags(fb) &^ (FlagAccessed | FlagIncompressible)
		m.flags[i] = uint8(f)
		if f&reclaimMask == 0 {
			reclaimable++
		}
		if f&FlagCompressed != 0 {
			m.epoch[i] = m.scanEpoch
		}
	}
	for i := range m.ages {
		m.ages[i] = 0
	}
	m.ageCounts = [NumAges]uint64{}
	m.ageCounts[0] = uint64(len(m.flags))
	m.reclaimAges = [NumAges]uint64{}
	m.reclaimAges[0] = reclaimable
	m.compressedAges = [NumAges]uint64{}
	m.compressedAges[0] = uint64(m.compressed)
}

// memcgPair drives a Memcg and the reference through the same operations
// and compares everything the walks and the census expose.
type memcgPair struct {
	m          *Memcg
	ref        *refMemcg
	promos     [NumAges]uint64
	refPromos  [NumAges]uint64
	ids, refID []PageID
	handle     zsmalloc.Handle
	maxPages   int // Grow stops here
}

func newMemcgPair(pages int, seed uint64, mlocked float64) *memcgPair {
	m := NewMemcg(Config{
		Name: "pair", Pages: pages, Mix: pagedata.DefaultMix,
		SeedBase: seed, MlockedFraction: mlocked,
	})
	return &memcgPair{m: m, ref: newRefMemcg(m), maxPages: max(600, pages+3*oldestBlock)}
}

const numPairOps = 11

// apply performs operation op on the page a picks: a modulo the page
// count, so only pages 0–255.
func (p *memcgPair) apply(op, a, b uint8) { p.applyAt(op, int(a), b) }

// applyAt performs operation op (taken modulo numPairOps) on both sides.
// page (modulo the page count) picks the page, b is the operation's
// argument.
func (p *memcgPair) applyAt(op uint8, page int, b uint8) {
	m, ref := p.m, p.ref
	id := PageID(page % m.NumPages())
	isCompressed := m.Flags(id).Has(FlagCompressed)
	// Everything but FlagCompressed, which only Mark* may change; the two
	// undefined high bits ride along to show the lane tests ignore them.
	flagArg := PageFlags(b) &^ FlagCompressed
	switch op % numPairOps {
	case 0: // fault-and-touch, as the node layer does it
		if isCompressed {
			m.MarkPromoted(id)
			ref.MarkPromoted(id)
		}
		m.Touch(id, b&1 != 0)
		ref.Touch(id, b&1 != 0)
	case 1:
		if m.NumPages() < p.maxPages {
			n := 1 + int(b)%9
			m.Grow(n)
			ref.Grow(n)
		}
	case 2:
		m.SetFlags(id, flagArg)
		ref.SetFlags(id, flagArg)
	case 3:
		m.ClearFlags(id, flagArg)
		ref.ClearFlags(id, flagArg)
	case 4:
		m.SetAge(id, b)
		ref.SetAge(id, b)
	case 5:
		if m.Reclaimable(id) {
			p.handle++
			m.MarkCompressed(id, p.handle, int(b)*11)
			ref.MarkCompressed(id)
		}
	case 6:
		if isCompressed {
			m.MarkPromoted(id)
			ref.MarkPromoted(id)
		}
	case 7:
		if b%8 == 0 {
			m.ResetAges()
			ref.ResetAges()
		}
	case 8: // a burst of scans: ages run into saturation
		for i := 0; i < int(b); i++ {
			m.ScanAges(&p.promos)
			ref.ScanAges(&p.refPromos)
		}
	default:
		m.ScanAges(&p.promos)
		ref.ScanAges(&p.refPromos)
	}
}

// check compares both sides and recounts the real memcg's indexes. Its
// candidate walks leave every block bound exact; verify alone leaves them
// as the operations did.
func (p *memcgPair) check() error {
	m, ref := p.m, p.ref
	if err := p.verify(); err != nil {
		return err
	}
	for th := -1; th <= NumAges; th++ {
		if got, want := m.ReclaimTail(th), ref.ReclaimTail(th); got != want {
			return fmt.Errorf("ReclaimTail(%d) = %d, reference %d", th, got, want)
		}
		p.ids = m.AppendColdReclaimable(p.ids[:0], th)
		p.refID = ref.AppendColdReclaimable(p.refID[:0], th)
		if !slices.Equal(p.ids, p.refID) {
			return fmt.Errorf("AppendColdReclaimable(%d) = %v, reference %v", th, p.ids, p.refID)
		}
	}
	for age := 0; age < NumAges; age++ {
		p.ids = m.AppendReclaimableAt(p.ids[:0], uint8(age))
		p.refID = ref.AppendReclaimableAt(p.refID[:0], uint8(age))
		if !slices.Equal(p.ids, p.refID) {
			return fmt.Errorf("AppendReclaimableAt(%d) = %v, reference %v", age, p.ids, p.refID)
		}
	}
	return nil
}

// verify recounts the real memcg's indexes and compares every page and
// the census with the reference, without walking for candidates.
func (p *memcgPair) verify() error {
	m, ref := p.m, p.ref
	if err := m.VerifyIndexes(); err != nil {
		return err
	}
	if m.NumPages() != len(ref.flags) {
		return fmt.Errorf("pages = %d, reference %d", m.NumPages(), len(ref.flags))
	}
	for i := 0; i < m.NumPages(); i++ {
		id := PageID(i)
		if m.Age(id) != ref.Age(id) || uint8(m.Flags(id)) != ref.flags[i] {
			return fmt.Errorf("page %d: age %d flags %08b, reference age %d flags %08b",
				i, m.Age(id), m.Flags(id), ref.Age(id), ref.flags[i])
		}
	}
	if m.AgeCounts() != ref.ageCounts {
		return fmt.Errorf("AgeCounts differ from the reference")
	}
	if m.CompressedAgeCounts() != ref.compressedAges {
		return fmt.Errorf("CompressedAgeCounts differ from the reference")
	}
	if p.promos != p.refPromos {
		return fmt.Errorf("promotion tallies differ from the reference")
	}
	return nil
}

// TestMemcgMatchesReference runs seeded random operation sequences over
// memcgs of assorted sizes (multiples of eight and not) and holds the lazy
// memcg to the reference after every operation.
func TestMemcgMatchesReference(t *testing.T) {
	for seed, pages := range []int{1, 7, 8, 9, 16, 37, 64, 100} {
		rng := rand.New(rand.NewSource(int64(seed)))
		p := newMemcgPair(pages, uint64(seed), []float64{0, 0.1}[seed%2])
		if err := p.check(); err != nil {
			t.Fatalf("%d pages, fresh: %v", pages, err)
		}
		for step := 0; step < 600; step++ {
			op, a, b := uint8(rng.Intn(numPairOps)), uint8(rng.Intn(256)), uint8(rng.Intn(256))
			if op == 8 && rng.Intn(4) != 0 {
				op = 9 // long bursts are the rare case
			}
			p.apply(op, a, b)
			if err := p.check(); err != nil {
				t.Fatalf("%d pages, step %d (op %d, a %d, b %d): %v", pages, step, op%numPairOps, a, b, err)
			}
		}
	}
}

// widePopulations span several blocks of the oldest column and end inside
// one.
var widePopulations = []int{oldestBlock + 1, 2*oldestBlock + 2, 3*oldestBlock - 1, 4*oldestBlock + 1, 1000}

// TestManyBlockMemcgMatchesReference is the same comparison over memcgs
// of many blocks, with operations landing on every page of them and Grow
// crossing block boundaries. The candidate walks tighten every bound, so
// only every fourth step runs them: in between, the bounds are whatever
// the operations left, and VerifyIndexes alone holds them to the pages.
func TestManyBlockMemcgMatchesReference(t *testing.T) {
	for seed, pages := range widePopulations {
		rng := rand.New(rand.NewSource(int64(100 + seed)))
		p := newMemcgPair(pages, uint64(seed), []float64{0, 0.1}[seed%2])
		for step := 0; step < 1200; step++ {
			op, b := uint8(rng.Intn(numPairOps)), uint8(rng.Intn(256))
			if op == 8 && rng.Intn(4) != 0 {
				op = 9
			}
			page := rng.Intn(p.m.NumPages())
			p.applyAt(op, page, b)
			check := p.verify
			if step%4 == 3 {
				check = p.check
			}
			if err := check(); err != nil {
				t.Fatalf("%d pages, step %d (op %d, page %d, b %d): %v", pages, step, op%numPairOps, page, b, err)
			}
		}
		if p.m.NumPages() < pages+oldestBlock {
			t.Errorf("%d pages grew to %d only; no Grow filled a block and started the next", pages, p.m.NumPages())
		}
	}
}

// FuzzMemcgOps reads the input as (op, page, argument) triples applied to
// a memcg whose size the first byte picks. A first byte of 128 and up
// picks a many-block memcg instead, and the records become (op, page low
// byte, page high byte, argument).
func FuzzMemcgOps(f *testing.F) {
	f.Add([]byte{8})
	f.Add([]byte{13, 4, 0, 255, 9, 0, 0, 8, 0, 200, 8, 0, 100, 0, 0, 0})    // SetAge(255) at epoch 0, idle past saturation, touch
	f.Add([]byte{20, 5, 3, 7, 2, 3, 1, 9, 0, 0, 9, 0, 0, 6, 3, 0})          // accessed bit set on a compressed page
	f.Add([]byte{9, 5, 8, 1, 8, 0, 255, 8, 0, 255, 6, 8, 0, 9, 0, 0})       // compressed page promoted at saturation
	f.Add([]byte{31, 0, 1, 1, 1, 0, 5, 4, 30, 77, 7, 0, 8, 9, 0, 0})        // grow, age, reset
	f.Add([]byte{128, 2, 64, 0, 16, 8, 0, 0, 40, 3, 64, 0, 16, 1, 0, 0, 8}) // 65 pages: the last block's only page incompressible, idle, then eligible again; grow
	f.Add([]byte{131, 5, 0, 1, 0, 8, 0, 0, 9, 6, 0, 1, 0, 4, 200, 0, 77})   // 257 pages: page 256 compressed, idle, promoted; page 200 aged
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		if data[0] >= 128 {
			data = data[:min(len(data), 1+4*100)]
			// The first four: under 300 pages, so a check stays cheap.
			p := newMemcgPair(widePopulations[int(data[0])%4], uint64(data[0]), 0.1)
			for i := 1; i+4 <= len(data); i += 4 {
				page := int(data[i+1]) | int(data[i+2])<<8
				p.applyAt(data[i], page, data[i+3])
				if err := p.check(); err != nil {
					t.Fatalf("op %d (%d, page %d, arg %d): %v", i/4, data[i]%numPairOps, page, data[i+3], err)
				}
			}
			return
		}
		data = data[:min(len(data), 1+3*200)]
		p := newMemcgPair(1+int(data[0])%70, uint64(data[0]), 0.1)
		for i := 1; i+3 <= len(data); i += 3 {
			p.apply(data[i], data[i+1], data[i+2])
			if err := p.check(); err != nil {
				t.Fatalf("op %d (%d, page %d, arg %d): %v", i/3, data[i]%numPairOps, data[i+1], data[i+2], err)
			}
		}
	})
}

// referenceBornIn is appendBornIn as it was before the per-block bound:
// one walk over the whole flags column, reading born for every page whose
// flags qualify. It is that code verbatim; only the name changed.
func (m *Memcg) referenceBornIn(dst []PageID, mask PageFlags, lo, hi uint32) []PageID {
	span := hi - lo
	for i, hit := nextLanes(m.flags, 0, mask, 0); hit != 0; i, hit = nextLanes(m.flags, i+8, mask, 0) {
		for ; hit != 0; hit &= hit - 1 {
			id := PageID(i + bits.TrailingZeros64(hit)>>3)
			if m.born[id]-lo <= span {
				dst = append(dst, id)
			}
		}
	}
	return dst
}

// TestBornInMatchesFlatWalk holds the blocked walk to the flat one on a
// memcg the size of a job — most of it compressed or idle, a few hot
// pages, as in a cold store — for both masks the callers use and for born
// ranges that start, end and lie anywhere, between operations that leave
// bounds stale in both directions.
func TestBornInMatchesFlatWalk(t *testing.T) {
	const pages = 20*oldestBlock + 13
	rng := rand.New(rand.NewSource(5))
	m := newTestMemcg(pages)
	var promos [NumAges]uint64
	var got, want []PageID
	handle := zsmalloc.Handle(0)
	for round := 0; round < 400; round++ {
		for k := 0; k < 30; k++ {
			// Pages of the first two blocks are hot; the rest are
			// touched rarely.
			id := PageID(rng.Intn(2 * oldestBlock))
			if k%10 == 0 {
				id = PageID(rng.Intn(m.NumPages()))
			}
			if m.Flags(id).Has(FlagCompressed) {
				m.MarkPromoted(id)
			}
			m.Touch(id, k%3 == 0)
		}
		switch id := PageID(rng.Intn(m.NumPages())); round % 5 {
		case 0:
			m.SetFlags(id, FlagIncompressible)
		case 1:
			m.SetAge(id, uint8(rng.Intn(NumAges)))
		case 2:
			m.Grow(1 + rng.Intn(5))
		}
		m.ScanAges(&promos)
		if round > 20 { // reclaim, as kreclaimd does, what has been idle for 12 scans
			got = m.AppendColdReclaimable(got[:0], 12)
			for _, id := range got {
				handle++
				m.MarkCompressed(id, handle, 900)
			}
		}
		for k := 0; k < 6; k++ {
			lo := m.scanEpoch - uint32(rng.Intn(40))
			hi := lo + uint32(rng.Intn(int(m.scanEpoch-lo)+1))
			if k == 0 {
				lo = 0
			}
			mask := []PageFlags{reclaimMask, reclaimMask | FlagAccessed}[k%2]
			got = m.appendBornIn(got[:0], mask, lo, hi)
			want = m.referenceBornIn(want[:0], mask, lo, hi)
			if !slices.Equal(got, want) {
				t.Fatalf("round %d: born in [%d, %d] under mask %08b = %v, flat walk %v", round, lo, hi, mask, got, want)
			}
			if err := m.VerifyIndexes(); err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		}
	}
	if m.Compressed() < pages/2 {
		t.Errorf("only %d of %d pages compressed; the shape is not a cold store's", m.Compressed(), m.NumPages())
	}
}

// TestEdgesThatLowerTheBound takes each event after which a block bound
// must come down. Every case first empties block 1 — the last, and not
// full — of old eligible pages and lets a walk tighten its bound past
// them, then lets one page of the block become a candidate again.
func TestEdgesThatLowerTheBound(t *testing.T) {
	const (
		pages = 2*oldestBlock - 8
		first = oldestBlock     // block 1's first page
		page  = oldestBlock + 6 // the page the edge lands on
		idle  = 50              // scans before the edge

		opTouch, opGrow, opSetFlags, opClearFlags, opSetAge, opCompress, opPromote, opReset, opScans = 0, 1, 2, 3, 4, 5, 6, 7, 8
	)
	everyPage := func(p *memcgPair, op, b uint8) {
		for id := first; id < pages; id++ {
			p.applyAt(op, id, b)
		}
	}
	none := uint32(math.MaxUint32) // what a walk leaves on a block without eligible pages
	for name, tc := range map[string]struct {
		empty     func(p *memcgPair) // takes block 1's old eligible pages away
		tightened func(m *Memcg) uint32
		edge      func(p *memcgPair)
		list      func(m *Memcg) []PageID // must hold page after the edge
		page      PageID                  // if not the const
	}{
		"incompressible mark cleared": {
			empty:     func(p *memcgPair) { everyPage(p, opSetFlags, uint8(FlagIncompressible)) },
			tightened: func(*Memcg) uint32 { return none },
			edge:      func(p *memcgPair) { p.applyAt(opClearFlags, page, uint8(FlagIncompressible)) },
			list:      func(m *Memcg) []PageID { return m.AppendColdReclaimable(nil, idle) },
		},
		"incompressible page written": {
			empty:     func(p *memcgPair) { everyPage(p, opSetFlags, uint8(FlagIncompressible)) },
			tightened: func(*Memcg) uint32 { return none },
			edge:      func(p *memcgPair) { p.applyAt(opTouch, page, 1) },
			list:      func(m *Memcg) []PageID { return m.AppendReclaimableAt(nil, idle) },
		},
		"SetAge to an older age": {
			empty:     func(p *memcgPair) { everyPage(p, opTouch, 0); p.applyAt(opScans, 0, 1) },
			tightened: func(m *Memcg) uint32 { return m.scanEpoch },
			edge:      func(p *memcgPair) { p.applyAt(opSetAge, page, 200) },
			list:      func(m *Memcg) []PageID { return m.AppendColdReclaimable(nil, 200) },
		},
		"promotion into an all-compressed block": {
			empty:     func(p *memcgPair) { everyPage(p, opCompress, 9) },
			tightened: func(*Memcg) uint32 { return none },
			edge:      func(p *memcgPair) { p.applyAt(opPromote, page, 0) },
			list:      func(m *Memcg) []PageID { return m.AppendReclaimableAt(nil, 0) },
		},
		"Grow into an all-compressed block": {
			empty:     func(p *memcgPair) { everyPage(p, opCompress, 9) },
			tightened: func(*Memcg) uint32 { return none },
			edge:      func(p *memcgPair) { p.applyAt(opGrow, 0, 0) },
			list:      func(m *Memcg) []PageID { return m.AppendReclaimableAt(nil, 0) },
			page:      pages,
		},
		"ResetAges": {
			empty:     func(p *memcgPair) { everyPage(p, opSetFlags, uint8(FlagIncompressible)) },
			tightened: func(*Memcg) uint32 { return none },
			edge:      func(p *memcgPair) { p.applyAt(opReset, 0, 0) },
			list:      func(m *Memcg) []PageID { return m.AppendReclaimableAt(nil, 0) },
		},
	} {
		p := newMemcgPair(pages, 3, 0)
		p.applyAt(opScans, 0, idle)
		tc.empty(p)
		if err := p.check(); err != nil {
			t.Fatalf("%s, before the edge: %v", name, err)
		}
		if got, want := p.m.oldest[1], tc.tightened(p.m); got != want {
			t.Fatalf("%s: a walk left block 1's bound at %d, want %d (scan epoch %d)", name, got, want, p.m.scanEpoch)
		}
		tc.edge(p)
		if err := p.verify(); err != nil {
			t.Errorf("%s, after the edge: %v", name, err)
		}
		want := max(tc.page, page)
		if ids := tc.list(p.m); !slices.Contains(ids, want) {
			t.Errorf("%s: page %d is not among the candidates %v", name, want, ids)
		}
		if err := p.check(); err != nil {
			t.Errorf("%s, after the edge: %v", name, err)
		}
	}
}

// TestHotBlockIsWalkedOnce: a block whose eligible pages are all touched
// every period never had its bound raised by the scans that re-stamp
// them, so the first reclaim pass walks it — and leaves the exact minimum
// behind, so the following passes do not.
func TestHotBlockIsWalkedOnce(t *testing.T) {
	m := newTestMemcg(3*oldestBlock + 8)
	var promos [NumAges]uint64
	hotPeriod := func() {
		for id := PageID(oldestBlock); id < 2*oldestBlock; id++ {
			m.Touch(id, false)
		}
		m.ScanAges(&promos)
	}
	for i := 0; i < 300; i++ {
		hotPeriod()
	}
	if m.oldest[1] != MaxAge {
		t.Fatalf("block 1's bound moved to %d without a walk; scans need not raise it", m.oldest[1])
	}
	ids := m.AppendColdReclaimable(nil, 10)
	if len(ids) != 2*oldestBlock+8 || slices.ContainsFunc(ids, func(id PageID) bool { return id/oldestBlock == 1 }) {
		t.Fatalf("cold candidates %v, want every page outside block 1", ids)
	}
	walkedAt := m.scanEpoch
	if m.oldest[1] != walkedAt {
		t.Fatalf("the walk left block 1's bound at %d, want the exact minimum %d", m.oldest[1], walkedAt)
	}
	for i := 0; i < 5; i++ {
		hotPeriod()
		if ids = m.AppendColdReclaimable(ids[:0], 10); len(ids) != 2*oldestBlock+8 {
			t.Fatalf("%d cold candidates, want %d", len(ids), 2*oldestBlock+8)
		}
		if m.oldest[1] != walkedAt {
			t.Fatalf("block 1 was walked again: bound %d, was %d", m.oldest[1], walkedAt)
		}
	}
	if err := m.VerifyIndexes(); err != nil {
		t.Error(err)
	}
}

func scanN(m *Memcg, n int) (promos [NumAges]uint64) {
	for i := 0; i < n; i++ {
		m.ScanAges(&promos)
	}
	return promos
}

func TestIdlePageSaturatesAtMaxAge(t *testing.T) {
	m := newTestMemcg(11)
	m.MarkCompressed(4, 1, 100)
	promos := scanN(m, MaxAge+45)
	for id := PageID(0); id < 11; id++ {
		if m.Age(id) != MaxAge {
			t.Fatalf("page %d idle for %d scans is at age %d", id, MaxAge+45, m.Age(id))
		}
	}
	if got := m.AgeCounts(); got[MaxAge] != 11 {
		t.Errorf("saturated census bucket holds %d of 11 pages", got[MaxAge])
	}
	if got := m.CompressedAgeCounts(); got[MaxAge] != 1 {
		t.Errorf("saturated compressed bucket holds %d pages, want 1", got[MaxAge])
	}
	if m.ReclaimTail(MaxAge) != 10 {
		t.Errorf("ReclaimTail(MaxAge) = %d, want 10", m.ReclaimTail(MaxAge))
	}
	if promos != ([NumAges]uint64{}) {
		t.Error("idle pages produced promotions")
	}
	if ids := m.AppendReclaimableAt(nil, MaxAge); len(ids) != 10 {
		t.Errorf("AppendReclaimableAt(MaxAge) = %v, want the 10 resident pages", ids)
	}
	// A saturated page that is finally touched reports MaxAge, once.
	m.Touch(2, false)
	m.ScanAges(&promos)
	if promos[MaxAge] != 1 || m.Age(2) != 0 || m.Age(3) != MaxAge {
		t.Errorf("promos[MaxAge] = %d, age(2) = %d, age(3) = %d", promos[MaxAge], m.Age(2), m.Age(3))
	}
	if err := m.VerifyIndexes(); err != nil {
		t.Error(err)
	}
}

func TestSetMaxAgeOnFreshMemcg(t *testing.T) {
	m := newTestMemcg(9)
	m.SetAge(8, MaxAge)
	m.SetAge(3, MaxAge-1)
	if m.Age(8) != MaxAge || m.Age(3) != MaxAge-1 || m.Age(0) != 0 {
		t.Fatalf("ages = %d, %d, %d", m.Age(8), m.Age(3), m.Age(0))
	}
	if ids := m.AppendColdReclaimable(nil, MaxAge); !slices.Equal(ids, []PageID{8}) {
		t.Errorf("AppendColdReclaimable(MaxAge) = %v, want [8]", ids)
	}
	if err := m.VerifyIndexes(); err != nil {
		t.Fatal(err)
	}
	scanN(m, 1)
	if m.Age(8) != MaxAge || m.Age(3) != MaxAge || m.Age(0) != 1 {
		t.Errorf("after a scan: ages = %d, %d, %d", m.Age(8), m.Age(3), m.Age(0))
	}
	if err := m.VerifyIndexes(); err != nil {
		t.Error(err)
	}
}

func TestPromoteSaturatedCompressedPage(t *testing.T) {
	m := newTestMemcg(8)
	m.SetAge(5, 200)
	m.MarkCompressed(5, 1, 640)
	scanN(m, 300)
	if m.Age(5) != MaxAge {
		t.Fatalf("compressed page at age %d after 300 scans", m.Age(5))
	}
	m.MarkPromoted(5)
	if m.Age(5) != 0 || !m.Flags(5).Has(FlagAccessed) {
		t.Errorf("promoted page: age %d flags %b", m.Age(5), m.Flags(5))
	}
	if got := m.CompressedAgeCounts(); got != ([NumAges]uint64{}) {
		t.Error("compressed histogram not empty after the only compressed page left")
	}
	if got := m.AgeCounts(); got[0] != 1 || got[MaxAge] != 7 {
		t.Errorf("census: bucket 0 = %d, bucket MaxAge = %d", got[0], got[MaxAge])
	}
	if err := m.VerifyIndexes(); err != nil {
		t.Error(err)
	}
}

func TestResetAgesMidRun(t *testing.T) {
	m := NewMemcg(Config{Name: "x", Pages: 21, Mix: pagedata.DefaultMix, MlockedFraction: 0.2})
	scanN(m, 40)
	m.MarkCompressed(6, 1, 100)
	m.Touch(7, false)
	scanN(m, 3)
	m.ResetAges()
	if got := m.AgeCounts(); got[0] != 21 {
		t.Fatalf("census bucket 0 holds %d of 21 pages after reset", got[0])
	}
	if got := m.CompressedAgeCounts(); got[0] != 1 {
		t.Errorf("compressed bucket 0 holds %d pages, want 1", got[0])
	}
	if err := m.VerifyIndexes(); err != nil {
		t.Fatal(err)
	}
	scanN(m, 2)
	for id := PageID(0); id < 21; id++ {
		if m.Age(id) != 2 {
			t.Fatalf("page %d at age %d two scans after reset", id, m.Age(id))
		}
	}
	if err := m.VerifyIndexes(); err != nil {
		t.Error(err)
	}
}

// TestVerifyIndexesCatchesCorruption damages the born column and each
// histogram behind the memcg's back.
func TestVerifyIndexesCatchesCorruption(t *testing.T) {
	fresh := func() *Memcg {
		m := newTestMemcg(12)
		m.MarkCompressed(2, 1, 100)
		m.Touch(3, false)
		scanN(m, 5)
		if err := m.VerifyIndexes(); err != nil {
			t.Fatal(err)
		}
		return m
	}
	for name, damage := range map[string]func(m *Memcg){
		"born in the future":       func(m *Memcg) { m.born[4] = m.scanEpoch + 1 },
		"bound above a page":       func(m *Memcg) { m.oldest[0] = m.born[4] + 1 },
		"bound column short":       func(m *Memcg) { m.oldest = m.oldest[:0] },
		"born moved":               func(m *Memcg) { m.born[4]-- },
		"census bucket lost":       func(m *Memcg) { m.ageCounts[5]-- },
		"reclaim bucket misplaced": func(m *Memcg) { m.reclaimAges[5]--; m.reclaimAges[6]++ },
		"compressed shift skipped": func(m *Memcg) { m.compressedAges[5]--; m.compressedAges[4]++ },
		"epoch bumped, no shift":   func(m *Memcg) { m.scanEpoch++ },
	} {
		m := fresh()
		damage(m)
		if m.VerifyIndexes() == nil {
			t.Errorf("%s: VerifyIndexes reported nothing", name)
		}
	}
}

func TestSteadyStateWalksAllocateNothing(t *testing.T) {
	m := newTestMemcg(4099)
	for id := PageID(0); id < 4099; id += 3 {
		m.SetAge(id, uint8(id))
	}
	var promos [NumAges]uint64
	ids := m.AppendColdReclaimable(nil, 0)
	id := PageID(0)
	allocs := testing.AllocsPerRun(50, func() {
		for k := 0; k < 40; k++ {
			m.Touch(id%4099, k%2 == 0)
			id += 101
		}
		m.ScanAges(&promos)
		ids = m.AppendColdReclaimable(ids[:0], 2)
		ids = m.AppendReclaimableAt(ids[:0], MaxAge)
	})
	if allocs != 0 {
		t.Errorf("scan + candidate walks allocate %v times per pass", allocs)
	}
}
