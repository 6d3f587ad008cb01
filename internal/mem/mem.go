// Package mem models the kernel-visible memory state the far-memory
// control plane operates on: physical pages with accessed/dirty bits and
// an 8-bit age, grouped into per-job memory cgroups (memcgs).
//
// The simulated MMU contract matches x86: any access to a mapped page sets
// its accessed bit, and it is software's job (kstaled) to clear it. Pages
// that have been migrated to far memory are unmapped; touching one is a
// major fault that the node layer resolves by decompressing (a
// "promotion").
//
// Layout: page state is stored structure-of-arrays — a flags column (one
// byte per page) and a born column (one uint32 per page) that the scan and
// reclaim walks read, next to a cold-metadata column (content seed, class,
// compressed-payload handle, the content's compressed size once known)
// that only the store/load paths read.
//
// Lazy aging. A page does not store its age; it stores the scan epoch at
// which its age was 0 (born), and the memcg counts scans (scanEpoch), so
//
//	Age(id) = min(MaxAge, scanEpoch - born[id])
//
// is the one rule for resident and compressed pages alike. A scan
// therefore writes nothing to an idle page: it bumps scanEpoch, which ages
// every page at once, and visits only the resident pages whose accessed
// bit is set, to harvest the bit and stamp them born at the new epoch.
// scanEpoch starts at MaxAge so that SetAge(MaxAge) on a fresh memcg is
// representable; 2³² scans of 120 s are ≈ 16,000 years, so it never wraps.
//
// Three age histograms are maintained incrementally on every age or flag
// transition and shifted one bucket (saturating into MaxAge) per scan:
//
//   - ageCounts[a] counts all pages at age a (the census source);
//   - reclaimAges[a] counts the flag-wise reclaim-eligible pages at age a,
//     so reclaim passes can prove "nothing at or above the threshold" in
//     256 reads instead of a full walk;
//   - compressedAges[a] counts the compressed pages at age a.
//
// The walks that remain (ScanAges, AppendColdReclaimable,
// AppendReclaimableAt) load eight flag bytes at a time and visit only the
// pages whose flags qualify, always in ascending page order: the order in
// which reclaim stores pages decides zsmalloc placement and where a full
// pool cuts a pass short, so it is part of the simulated behaviour. What
// the simulated kernel is charged is not lazy either: kstaled still
// accounts a PTE walk per page and kreclaimd still reports every page as
// scanned — only the simulator's own bookkeeping scales with activity.
//
// Block bounds. The two candidate walks do not read the flags of a block
// of oldestBlock pages in which nothing can be old enough: oldest[b] is a
// lower bound on born over the block's reclaim-eligible pages, and a walk
// for born <= hi skips the block when oldest[b] > hi. A bound may only
// err towards visiting. born rising (a scan re-stamps an accessed page)
// therefore needs no update — the bound goes stale on the low side, the
// next walk that visits the block stores its exact minimum back — while a
// page becoming eligible, or an eligible page's born falling, lowers the
// bound on the spot: fixReclaim's became-eligible edge, MarkPromoted,
// SetAge and Grow (NewMemcg and ResetAges set every block to the current
// epoch). The candidate lists are the flat walk's, page for page.
//
// A lazily-compacted index lists the compressed pages so crash and
// job-exit paths visit only the far-memory set.
package mem

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"sort"

	"sdfm/internal/pagedata"
	"sdfm/internal/zsmalloc"
)

// PageSize is the size of one page in bytes.
const PageSize = 4096

// MaxAge is the saturating value of the 8-bit per-page age, counted in
// scan periods (255 × 120 s ≈ 8.5 h in the production configuration).
const MaxAge = 255

// NumAges is the number of distinct age values (bucket count of the age
// indexes); it equals histogram.NumBuckets.
const NumAges = MaxAge + 1

// PageID identifies a page within its memcg.
type PageID uint32

// PageFlags is the per-page flag word.
type PageFlags uint8

const (
	// FlagAccessed is the MMU accessed bit.
	FlagAccessed PageFlags = 1 << iota
	// FlagDirty is set on writes; it clears the incompressible mark.
	FlagDirty
	// FlagMlocked marks pages locked in memory; never reclaimed.
	FlagMlocked
	// FlagUnevictable marks pages off the LRU; never reclaimed.
	FlagUnevictable
	// FlagIncompressible marks pages whose compressed payload exceeded the
	// acceptance cutoff; zswap will not retry until the page is dirtied.
	FlagIncompressible
	// FlagCompressed marks pages currently stored in far memory.
	FlagCompressed
)

// reclaimMask is the set of flags any of which makes a page ineligible for
// reclaim. The accessed bit is deliberately not part of it: it flips on
// every touch, and proactive reclaim filters it per pass instead.
const reclaimMask = FlagCompressed | FlagMlocked | FlagUnevictable | FlagIncompressible

// Has reports whether all flags in x are set.
func (f PageFlags) Has(x PageFlags) bool { return f&x == x }

// PageMeta is the cold per-page metadata: everything the scan and reclaim
// walks do not need, kept out of their cache footprint.
type PageMeta struct {
	Class pagedata.Class
	// Seed determines the page's content; writes bump it so content (and
	// therefore compressibility) changes when the application rewrites a
	// page.
	Seed uint64
	// Handle locates the compressed payload while FlagCompressed is set.
	Handle zsmalloc.Handle
	// CompressedSize is the payload size while compressed, else 0.
	CompressedSize int32
	// MemoSize is the compressed size of the page's current content, 0
	// when unknown. zswap records it — Pool.Store after a real
	// compression, Pool.Prime ahead of a reclaim pass's stores — and,
	// while the size is known, a store skips regenerating and
	// recompressing the page. mem clears it wherever content changes —
	// NewMemcg and Grow start every page unknown, and a write (Touch with
	// write set) clears it next to the Seed bump — which applies to every
	// page the rule §5.1 gives incompressible pages: not retried until
	// dirtied. MarkCompressed never writes it. The field sits in what was
	// tail padding, so PageMeta stays 32 bytes.
	MemoSize int32
}

// Memcg is a job's memory cgroup: its page population (which can grow as
// the job allocates) plus resident/compressed accounting. It is not safe
// for concurrent use, with one exception: zswap.Pool.Prime's workers
// read the Meta of distinct pages and write their MemoSize while the
// owner waits for them.
type Memcg struct {
	name  string
	flags []uint8 // PageFlags values; []uint8 so the walks can load 8 at a time
	// born[id] is the scan epoch at which page id's age was 0, always
	// <= scanEpoch; see Age.
	born []uint32
	// oldest[b] is a lower bound on born over the reclaim-eligible pages
	// (flags&reclaimMask == 0) of block b (pages b·oldestBlock …); see the
	// package comment.
	oldest     []uint32
	meta       []PageMeta
	resident   int // pages currently in near memory
	compressed int // pages currently in far memory
	// compressedBytes is the running sum of compressed payload sizes, so
	// telemetry export is O(1) instead of a page walk.
	compressedBytes uint64
	mix             pagedata.Mix
	seedBase        uint64
	// LimitBytes is the cgroup memory limit; 0 means unlimited. The node
	// agent turns zswap off for jobs at their limit (§5.1).
	LimitBytes uint64

	// scanEpoch is MaxAge plus the number of ScanAges passes so far.
	scanEpoch uint32
	// Age histograms; see the package comment for the invariants.
	ageCounts      [NumAges]uint64
	reclaimAges    [NumAges]uint64
	compressedAges [NumAges]uint64
	// compressedIDs lists pages that were compressed at some point, in
	// MarkCompressed order. Entries go stale when pages are promoted and
	// may repeat when re-compressed; compactCompressedIDs restores the
	// exact sorted compressed set. Appends keep it within a constant
	// factor of the live set.
	compressedIDs []PageID
}

// Config describes a memcg's page population.
type Config struct {
	Name  string
	Pages int
	// Mix controls the data-class distribution of the pages.
	Mix pagedata.Mix
	// SeedBase derives per-page content seeds; two memcgs with different
	// bases hold different data.
	SeedBase uint64
	// MlockedFraction of pages is marked mlocked (never reclaimable).
	MlockedFraction float64
}

// NewMemcg creates a memcg whose pages are all resident, age 0, with the
// accessed bit clear.
func NewMemcg(cfg Config) *Memcg {
	if cfg.Pages <= 0 {
		panic(fmt.Sprintf("mem: memcg %q with %d pages", cfg.Name, cfg.Pages))
	}
	m := &Memcg{
		name:      cfg.Name,
		flags:     make([]uint8, cfg.Pages),
		born:      make([]uint32, cfg.Pages),
		oldest:    make([]uint32, (cfg.Pages+oldestBlock-1)/oldestBlock),
		meta:      make([]PageMeta, cfg.Pages),
		resident:  cfg.Pages,
		mix:       cfg.Mix,
		seedBase:  cfg.SeedBase,
		scanEpoch: MaxAge,
	}
	mlockEvery := 0
	if cfg.MlockedFraction > 0 {
		mlockEvery = int(1 / cfg.MlockedFraction)
	}
	reclaimable := uint64(0)
	for i := range m.meta {
		m.born[i] = m.scanEpoch
		mt := &m.meta[i]
		mt.Seed = cfg.SeedBase + uint64(i)*0x9E3779B97F4A7C15 + 1
		// Deterministic class assignment: hash the seed into [0,1).
		u := float64(splitmix(mt.Seed)%1_000_000) / 1_000_000
		mt.Class = cfg.Mix.Sample(u)
		if mlockEvery > 0 && i%mlockEvery == 0 {
			m.flags[i] = uint8(FlagMlocked)
		} else {
			reclaimable++
		}
	}
	for b := range m.oldest {
		m.oldest[b] = m.scanEpoch
	}
	m.ageCounts[0] = uint64(cfg.Pages)
	m.reclaimAges[0] = reclaimable
	return m
}

func splitmix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// Grow appends n freshly allocated pages: resident, age 0, accessed (a
// new allocation was just written), with content drawn from the memcg's
// data-class mix. It returns the first new PageID.
func (m *Memcg) Grow(n int) PageID {
	if n <= 0 {
		panic(fmt.Sprintf("mem: growing %s by %d pages", m.name, n))
	}
	first := PageID(len(m.flags))
	for i := 0; i < n; i++ {
		idx := len(m.flags)
		var mt PageMeta
		mt.Seed = m.seedBase + uint64(idx)*0x9E3779B97F4A7C15 + 1
		u := float64(splitmix(mt.Seed)%1_000_000) / 1_000_000
		mt.Class = m.mix.Sample(u)
		m.flags = append(m.flags, uint8(FlagAccessed|FlagDirty))
		m.born = append(m.born, m.scanEpoch)
		if idx/oldestBlock == len(m.oldest) {
			m.oldest = append(m.oldest, m.scanEpoch)
		} else {
			m.lowerOldest(PageID(idx), m.scanEpoch)
		}
		m.meta = append(m.meta, mt)
		m.resident++
	}
	m.ageCounts[0] += uint64(n)
	m.reclaimAges[0] += uint64(n)
	return first
}

// UsageBytes is the cgroup's charged memory: resident pages at full size.
// (Compressed pages are charged to the machine-global pool, not the
// memcg, matching the paper's accounting where zswap frees job memory.)
func (m *Memcg) UsageBytes() uint64 { return uint64(m.resident) * PageSize }

// AtLimit reports whether the cgroup has reached its memory limit.
func (m *Memcg) AtLimit() bool {
	return m.LimitBytes > 0 && m.UsageBytes() >= m.LimitBytes
}

// Name returns the memcg's name.
func (m *Memcg) Name() string { return m.name }

// NumPages returns the total page population.
func (m *Memcg) NumPages() int { return len(m.flags) }

// Resident returns the number of pages in near memory.
func (m *Memcg) Resident() int { return m.resident }

// Compressed returns the number of pages in far memory.
func (m *Memcg) Compressed() int { return m.compressed }

// ResidentBytes returns near-memory usage in bytes.
func (m *Memcg) ResidentBytes() uint64 { return uint64(m.resident) * PageSize }

// Flags returns the flag word of page id. It panics on an out-of-range
// id, which is always a simulator bug.
func (m *Memcg) Flags(id PageID) PageFlags { return PageFlags(m.flags[id]) }

// Age returns the age of page id in scan periods: the scans elapsed since
// the page was last born, saturating at MaxAge.
func (m *Memcg) Age(id PageID) uint8 {
	return uint8(min(m.scanEpoch-m.born[id], MaxAge))
}

// Meta returns the cold metadata of page id. The pointer stays valid until
// the memcg grows. Callers must not change any field: Handle and
// CompressedSize belong to MarkCompressed/MarkPromoted, Seed and Class to
// mem (NewMemcg, Grow, Touch), and MemoSize to mem, which clears it, and
// zswap.Pool's Store and Prime, which record it. A Seed or Class changed
// behind Touch leaves MemoSize describing the old content.
func (m *Memcg) Meta(id PageID) *PageMeta { return &m.meta[id] }

// Reclaimable reports whether kreclaimd may move page id to far memory.
func (m *Memcg) Reclaimable(id PageID) bool { return m.flags[id]&uint8(reclaimMask) == 0 }

// lowerOldest keeps page id's block bound at or below born. Every event
// that makes a page reclaim-eligible, or moves an eligible page's born
// down, passes through here.
func (m *Memcg) lowerOldest(id PageID, born uint32) {
	if b := id / oldestBlock; born < m.oldest[b] {
		m.oldest[b] = born
	}
}

// fixReclaim updates the reclaim index after page id's flags changed from
// before to after at an unchanged age.
func (m *Memcg) fixReclaim(id PageID, before, after PageFlags) {
	was, is := before&reclaimMask == 0, after&reclaimMask == 0
	if was == is {
		return
	}
	if is {
		m.lowerOldest(id, m.born[id])
		m.reclaimAges[m.Age(id)]++
	} else {
		m.reclaimAges[m.Age(id)]--
	}
}

// SetFlags sets the flags in f on page id, maintaining the reclaim index.
func (m *Memcg) SetFlags(id PageID, f PageFlags) {
	before := PageFlags(m.flags[id])
	after := before | f
	m.flags[id] = uint8(after)
	m.fixReclaim(id, before, after)
}

// ClearFlags clears the flags in f on page id, maintaining the reclaim
// index.
func (m *Memcg) ClearFlags(id PageID, f PageFlags) {
	before := PageFlags(m.flags[id])
	after := before &^ f
	m.flags[id] = uint8(after)
	m.fixReclaim(id, before, after)
}

// SetAge moves page id to the given age bucket.
func (m *Memcg) SetAge(id PageID, age uint8) {
	old := m.Age(id)
	if old == age {
		return
	}
	m.born[id] = m.scanEpoch - uint32(age)
	m.ageCounts[old]--
	m.ageCounts[age]++
	switch f := PageFlags(m.flags[id]); {
	case f&FlagCompressed != 0:
		m.compressedAges[old]--
		m.compressedAges[age]++
	case f&reclaimMask == 0:
		m.lowerOldest(id, m.born[id])
		m.reclaimAges[old]--
		m.reclaimAges[age]++
	}
}

// Touch records an application access to page id, setting the accessed bit
// exactly as the MMU would. A write additionally dirties the page, changes
// its content seed, and clears any incompressible mark and the memoised
// compressed size (matching the kernel behaviour of re-evaluating
// compressibility once a PTE goes dirty). Callers that need to resolve
// promotion faults check Flags(id).Has(FlagCompressed) before touching.
func (m *Memcg) Touch(id PageID, write bool) {
	before := PageFlags(m.flags[id])
	after := before | FlagAccessed
	if write {
		after = (after | FlagDirty) &^ FlagIncompressible
		mt := &m.meta[id]
		mt.Seed = splitmix(mt.Seed)
		mt.MemoSize = 0
	}
	m.flags[id] = uint8(after)
	m.fixReclaim(id, before, after)
}

// MarkCompressed transitions page id into far memory with the given
// compressed payload handle. The page must be resident and reclaimable.
func (m *Memcg) MarkCompressed(id PageID, h zsmalloc.Handle, compressedSize int) {
	before := PageFlags(m.flags[id])
	if before.Has(FlagCompressed) {
		panic(fmt.Sprintf("mem: page %d of %s compressed twice", id, m.name))
	}
	after := (before | FlagCompressed) &^ FlagDirty
	m.flags[id] = uint8(after)
	m.fixReclaim(id, before, after)
	mt := &m.meta[id]
	mt.Handle = h
	mt.CompressedSize = int32(compressedSize)
	m.compressedAges[m.Age(id)]++
	m.compressedBytes += uint64(compressedSize)
	m.resident--
	m.compressed++
	if len(m.compressedIDs) >= 2*m.compressed+64 {
		m.compactCompressedIDs()
	}
	m.compressedIDs = append(m.compressedIDs, id)
}

// MarkPromoted transitions page id back to near memory after a promotion
// fault. Per the paper, a promoted page stays decompressed (and is only
// eligible for compression again once it turns cold again), so its age
// resets and the accessed bit is set.
func (m *Memcg) MarkPromoted(id PageID) {
	before := PageFlags(m.flags[id])
	if !before.Has(FlagCompressed) {
		panic(fmt.Sprintf("mem: promoting non-compressed page %d of %s", id, m.name))
	}
	old := m.Age(id)
	after := (before &^ FlagCompressed) | FlagAccessed
	m.flags[id] = uint8(after)
	m.born[id] = m.scanEpoch
	m.compressedAges[old]--
	m.ageCounts[old]--
	m.ageCounts[0]++
	// The page was flag-ineligible while compressed; it re-enters the
	// reclaim set at age 0 unless another mask flag is set.
	if after&reclaimMask == 0 {
		m.lowerOldest(id, m.scanEpoch)
		m.reclaimAges[0]++
	}
	mt := &m.meta[id]
	m.compressedBytes -= uint64(mt.CompressedSize)
	mt.Handle = zsmalloc.InvalidHandle
	mt.CompressedSize = 0
	m.resident++
	m.compressed--
}

// oldestBlock is the number of pages one entry of Memcg.oldest covers: a
// multiple of 8, so that a block is whole flag words, and 64 because that
// is one cache line of flags. Measured in place (bench sim_coldstore, four
// alternating runs each), 32, 64 and 128 are equal — medians 4,771, 4,772
// and 4,758 steps/s — and 256 is 2 % behind: most blocks of a cold job
// hold no eligible page at all, so the size matters only to the few
// percent of pages promoted within the threshold, and larger blocks drag
// more idle neighbours into each of their walks.
const oldestBlock = 64

// Byte-lane constants for the walks that load eight flag bytes at a time.
const (
	lanes01 = 0x0101010101010101
	lanes7f = 0x7f7f7f7f7f7f7f7f
	lanes80 = 0x8080808080808080
)

// nextLanes finds the next pages whose flags satisfy flags&mask == want.
// It reads flags a word of eight pages at a time from page i on (i a
// multiple of 8) and returns the first word that holds such a page: its
// first page index and a word with 0x80 in the byte lane of every match,
// or a zero word when there is none. The lane test is exact — no carry
// crosses a lane boundary — and a short last word reads as if padded with
// non-matching pages. It is the one flag reader of the scan and reclaim
// walks.
func nextLanes(flags []uint8, i int, mask, want PageFlags) (int, uint64) {
	mask8, want8 := uint64(mask)*lanes01, uint64(want)*lanes01
	match := func(w uint64) uint64 {
		x := (w ^ want8) & mask8
		return ^((x&lanes7f + lanes7f) | x) & lanes80
	}
	for ; i+8 <= len(flags); i += 8 {
		if hit := match(binary.LittleEndian.Uint64(flags[i:])); hit != 0 {
			return i, hit
		}
	}
	if i < len(flags) {
		var last [8]uint8
		rest := copy(last[:], flags[i:])
		return i, match(binary.LittleEndian.Uint64(last[:])) & (1<<(8*rest) - 1)
	}
	return i, 0
}

// shiftAges advances an age histogram by one scan: every bucket moves up
// one age, saturating into MaxAge, and bucket 0 is left empty.
func shiftAges(h *[NumAges]uint64) {
	h[MaxAge] += h[MaxAge-1]
	copy(h[1:MaxAge], h[:MaxAge-1])
	h[0] = 0
}

// ScanAges performs the page-state half of one kstaled pass:
//
//   - a resident page with the accessed bit set contributes its
//     age-at-access to promos, then resets to age 0 with the bit cleared;
//   - a resident page with the bit clear ages by one period (saturating);
//   - a compressed page ages by one period; it has no PTEs, so the bit is
//     never set by hardware (faults promote it before any access
//     completes), and a bit set on it by other means is left alone.
//
// Only the first kind is visited. Everything else ages by the epoch bump
// and one shift of each age histogram, so the census is afterwards
// available as AgeCounts in O(1) and an idle page costs an eighth of a
// word load.
func (m *Memcg) ScanAges(promos *[NumAges]uint64) {
	next := m.scanEpoch + 1
	var fresh, freshReclaim uint64
	// Accessed and resident: the only pages a scan has to touch.
	const mask, want = FlagAccessed | FlagCompressed, FlagAccessed
	for i, hit := nextLanes(m.flags, 0, mask, want); hit != 0; i, hit = nextLanes(m.flags, i+8, mask, want) {
		for ; hit != 0; hit &= hit - 1 {
			id := PageID(i + bits.TrailingZeros64(hit)>>3)
			a := m.Age(id)
			promos[a]++
			m.ageCounts[a]--
			fresh++
			f := PageFlags(m.flags[id]) &^ FlagAccessed
			if f&reclaimMask == 0 {
				m.reclaimAges[a]--
				freshReclaim++
			}
			m.flags[id] = uint8(f)
			m.born[id] = next
		}
	}
	m.scanEpoch = next
	shiftAges(&m.ageCounts)
	shiftAges(&m.reclaimAges)
	shiftAges(&m.compressedAges)
	m.ageCounts[0] = fresh
	m.reclaimAges[0] = freshReclaim
}

// AgeCounts returns the full-population age census (bucket a holds the
// number of pages at age a, compressed pages included).
func (m *Memcg) AgeCounts() [NumAges]uint64 { return m.ageCounts }

// ReclaimTail returns the number of flag-wise reclaim-eligible pages at
// age >= threshold. Pages whose accessed bit is set are included; reclaim
// policy filters them per pass.
func (m *Memcg) ReclaimTail(threshold int) uint64 {
	if threshold < 0 {
		threshold = 0
	}
	var s uint64
	for a := threshold; a < NumAges; a++ {
		s += m.reclaimAges[a]
	}
	return s
}

// appendBornIn appends to dst the ids (ascending) of the pages whose flags
// have no bit of mask set and whose born epoch lies in [lo, hi]; mask must
// include reclaimMask. A block bounded above hi is skipped in one
// comparison. In any other the reclaim-eligible pages are visited — all
// of them, not only those mask lets through, because the exact minimum of
// their born goes back into the bound: a block of hot or recently
// promoted pages is walked once, not on every pass.
func (m *Memcg) appendBornIn(dst []PageID, mask PageFlags, lo, hi uint32) []PageID {
	span := hi - lo
	for b, bound := range m.oldest {
		if bound > hi {
			continue
		}
		first := b * oldestBlock
		block := m.flags[first:min(first+oldestBlock, len(m.flags))]
		oldest := uint32(math.MaxUint32)
		for i, hit := nextLanes(block, 0, reclaimMask, 0); hit != 0; i, hit = nextLanes(block, i+8, reclaimMask, 0) {
			for ; hit != 0; hit &= hit - 1 {
				id := PageID(first + i + bits.TrailingZeros64(hit)>>3)
				born := m.born[id]
				oldest = min(oldest, born)
				if born-lo <= span && PageFlags(m.flags[id])&mask == 0 {
					dst = append(dst, id)
				}
			}
		}
		m.oldest[b] = oldest
	}
	return dst
}

// AppendColdReclaimable appends to dst the ids (ascending) of pages at
// age >= threshold that are reclaimable and whose accessed bit is clear —
// exactly the pages a proactive cold-reclaim pass stores. When the
// reclaim index proves the tail empty, no pages are visited; otherwise
// only the flag-eligible ones of the blocks that may hold a page that
// old are.
func (m *Memcg) AppendColdReclaimable(dst []PageID, threshold int) []PageID {
	if threshold > MaxAge || m.ReclaimTail(threshold) == 0 {
		return dst
	}
	// age >= threshold exactly when born <= scanEpoch - threshold.
	return m.appendBornIn(dst, reclaimMask|FlagAccessed, 0, m.scanEpoch-uint32(max(threshold, 0)))
}

// AppendReclaimableAt appends to dst the ids (ascending) of reclaimable
// pages at exactly the given age, regardless of the accessed bit — the
// per-bucket visit order of coldest-first pressure reclaim. Empty buckets
// cost 1 read; the others, the blocks that may hold a page that old.
func (m *Memcg) AppendReclaimableAt(dst []PageID, age uint8) []PageID {
	if m.reclaimAges[age] == 0 {
		return dst
	}
	hi := m.scanEpoch - uint32(age)
	lo := hi
	if age == MaxAge {
		lo = 0 // the saturated bucket holds every older page
	}
	return m.appendBornIn(dst, reclaimMask, lo, hi)
}

// compactCompressedIDs rewrites compressedIDs to the exact live set:
// currently-compressed pages only, ascending, no duplicates.
func (m *Memcg) compactCompressedIDs() {
	live := m.compressedIDs[:0]
	for _, id := range m.compressedIDs {
		if m.flags[id]&uint8(FlagCompressed) != 0 {
			live = append(live, id)
		}
	}
	sort.Slice(live, func(i, j int) bool { return live[i] < live[j] })
	uniq := live[:0]
	for i, id := range live {
		if i == 0 || id != live[i-1] {
			uniq = append(uniq, id)
		}
	}
	m.compressedIDs = uniq
}

// AppendCompressed appends to dst the ids of all far-memory pages in
// ascending order — the visit set of crash and job-exit paths, which
// therefore no longer walk the whole memcg.
func (m *Memcg) AppendCompressed(dst []PageID) []PageID {
	m.compactCompressedIDs()
	return append(dst, m.compressedIDs...)
}

// ResetAges implements the page-state half of a machine restart: every
// page refaults cold — age 0, accessed and incompressible bits clear —
// and the histograms are rebuilt. Mlocked/unevictable markings survive
// (they are properties of the restarted job's address space, not
// history).
func (m *Memcg) ResetAges() {
	reclaimable := uint64(0)
	for i, fb := range m.flags {
		f := PageFlags(fb) &^ (FlagAccessed | FlagIncompressible)
		m.flags[i] = uint8(f)
		if f&reclaimMask == 0 {
			reclaimable++
		}
		m.born[i] = m.scanEpoch
	}
	for b := range m.oldest {
		m.oldest[b] = m.scanEpoch
	}
	m.ageCounts = [NumAges]uint64{}
	m.ageCounts[0] = uint64(len(m.flags))
	m.reclaimAges = [NumAges]uint64{}
	m.reclaimAges[0] = reclaimable
	m.compressedAges = [NumAges]uint64{}
	m.compressedAges[0] = uint64(m.compressed)
}

// CompressedBytes returns the total compressed payload bytes of this
// memcg's far-memory pages, maintained incrementally.
func (m *Memcg) CompressedBytes() uint64 { return m.compressedBytes }

// CompressedAgeCounts returns the per-age histogram of the compressed
// cohort: CompressedAgeCounts()[a] compressed pages are currently at age
// a. Its sum equals Compressed(), and it is bounded bucket-wise by
// AgeCounts() — the invariant auditor checks both.
func (m *Memcg) CompressedAgeCounts() [NumAges]uint64 { return m.compressedAges }

// VerifyIndexes recounts every index and accounting field from the raw
// columns and reports the first mismatch; nil means all invariants hold.
// The histograms are recounted through born, so a shift that lost or
// misplaced a bucket shows up as a diverged index; a block bound is held
// to every reclaim-eligible page of its block. It exists for tests
// and the deep audit, and costs a full walk.
func (m *Memcg) VerifyIndexes() error {
	if len(m.born) != len(m.flags) || len(m.meta) != len(m.flags) {
		return fmt.Errorf("mem: %s columns hold %d flags, %d born, %d meta",
			m.name, len(m.flags), len(m.born), len(m.meta))
	}
	if want := (len(m.flags) + oldestBlock - 1) / oldestBlock; len(m.oldest) != want {
		return fmt.Errorf("mem: %s keeps %d block bounds for %d pages, want %d",
			m.name, len(m.oldest), len(m.flags), want)
	}
	var ageCounts, reclaimAges, compressedAges [NumAges]uint64
	var resident, compressed int
	var compressedBytes uint64
	for i, fb := range m.flags {
		if m.born[i] > m.scanEpoch {
			return fmt.Errorf("mem: %s page %d born at epoch %d, after scan epoch %d",
				m.name, i, m.born[i], m.scanEpoch)
		}
		f := PageFlags(fb)
		a := m.Age(PageID(i))
		ageCounts[a]++
		if f&reclaimMask == 0 {
			reclaimAges[a]++
			if bound := m.oldest[i/oldestBlock]; bound > m.born[i] {
				return fmt.Errorf("mem: %s block %d is bounded at epoch %d, after its reclaim-eligible page %d born at %d",
					m.name, i/oldestBlock, bound, i, m.born[i])
			}
		}
		if f&FlagCompressed != 0 {
			compressed++
			compressedAges[a]++
			compressedBytes += uint64(m.meta[i].CompressedSize)
		} else {
			resident++
		}
	}
	for _, h := range []struct {
		name      string
		got, want *[NumAges]uint64
	}{
		{"ageCounts", &m.ageCounts, &ageCounts},
		{"reclaimAges", &m.reclaimAges, &reclaimAges},
		{"compressedAges", &m.compressedAges, &compressedAges},
	} {
		for a := range h.got {
			if h.got[a] != h.want[a] {
				return fmt.Errorf("mem: %s %s index diverged from recount at age %d: %d, recount %d (scan epoch %d)",
					m.name, h.name, a, h.got[a], h.want[a], m.scanEpoch)
			}
		}
	}
	if resident != m.resident || compressed != m.compressed {
		return fmt.Errorf("mem: %s resident/compressed = %d/%d, recount %d/%d",
			m.name, m.resident, m.compressed, resident, compressed)
	}
	if compressedBytes != m.compressedBytes {
		return fmt.Errorf("mem: %s compressedBytes = %d, recount %d",
			m.name, m.compressedBytes, compressedBytes)
	}
	ids := m.AppendCompressed(nil)
	if len(ids) != compressed {
		return fmt.Errorf("mem: %s compressed-id index holds %d pages, recount %d",
			m.name, len(ids), compressed)
	}
	for i, id := range ids {
		if i > 0 && ids[i-1] >= id {
			return fmt.Errorf("mem: %s compressed-id index not strictly ascending at %d", m.name, i)
		}
		if m.flags[id]&uint8(FlagCompressed) == 0 {
			return fmt.Errorf("mem: %s compressed-id index lists resident page %d", m.name, id)
		}
	}
	return nil
}
