// Package zswap implements the software-defined far memory tier: a
// compressed in-DRAM pool for cold pages, in the style of Linux zswap as
// customized by the paper (§5.1).
//
// Deviations from stock zswap that the paper describes are implemented
// here: a single machine-global zsmalloc arena with an explicit compaction
// interface, rejection (and sticky marking) of pages whose compressed
// payload exceeds 2990 bytes, and proactive use driven by kreclaimd rather
// than by direct reclaim.
//
// The package also defines FarMemory, the device-agnostic interface the
// control plane is written against, so the same cold-page identification
// machinery can drive NVM- or remote-memory-backed tiers (§5, §7).
package zswap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sdfm/internal/compress"
	"sdfm/internal/mem"
	"sdfm/internal/pagedata"
	"sdfm/internal/zsmalloc"
)

// DefaultCutoff is the largest accepted compressed payload. The paper
// found no gains storing payloads larger than 2990 bytes (73% of a 4 KiB
// page) once zsmalloc metadata overhead is counted.
const DefaultCutoff = 2990

// StoreOutcome reports what happened to a page offered to far memory.
type StoreOutcome int

const (
	// StoreOK means the page was compressed and moved to far memory.
	StoreOK StoreOutcome = iota
	// StoreRejectedIncompressible means the compressed payload exceeded
	// the cutoff; the page stays resident and is marked incompressible.
	StoreRejectedIncompressible
	// StoreRejectedFull means the pool hit its capacity limit.
	StoreRejectedFull
	// StoreZeroFilled means the page was all zeroes and was recorded
	// without occupying arena space (the zswap same-filled-page
	// optimization: the content is reconstructible from metadata alone).
	StoreZeroFilled
	// StoreErrored means the compressor failed transiently (an injected
	// or hardware fault); the page stays resident and may be retried on a
	// later reclaim pass.
	StoreErrored
)

// ErrPoolFull is the sentinel carried by StoreResult.Err when a store is
// refused for capacity; callers test it with errors.Is.
var ErrPoolFull = errors.New("zswap: pool at capacity")

// ErrStoreFailed is the sentinel for transient compressor failures
// (StoreErrored outcomes).
var ErrStoreFailed = errors.New("zswap: store failed")

// StoreResult describes a Store call.
type StoreResult struct {
	Outcome        StoreOutcome
	CompressedSize int
	Ratio          float64       // original/compressed for accepted pages
	CPUTime        time.Duration // cycles charged to the job
	// Err carries a sentinel (ErrPoolFull, ErrStoreFailed) for refused
	// stores so callers can branch with errors.Is; nil for accepted pages
	// and incompressible rejections (which are expected outcomes).
	Err error
}

// LoadResult describes a Load (promotion) call.
type LoadResult struct {
	CompressedSize int
	CPUTime        time.Duration // decompression cycles charged to the job
	Latency        time.Duration // end-to-end promotion latency
}

// Stats aggregates pool activity since creation. Every field is
// CUMULATIVE (monotonically increasing over the pool's lifetime); none
// describes current occupancy. Current state comes from the dedicated
// accessors instead: FootprintBytes/UsedBytes for occupancy,
// Pool.ZeroResident for live same-filled pages, Pool/DevicePool
// DroppedPages for pages discarded without promotion. For any tier the
// pages currently held reconcile as
//
//	StoredPages - LoadedPages - DroppedPages()
//
// which the audit layer checks against per-memcg compressed-page counts.
type Stats struct {
	StoredPages    uint64 // pages accepted into the tier (incl. zero-filled)
	ZeroPages      uint64 // stored via the same-filled optimization
	RejectedPages  uint64 // refused: compressed payload above the cutoff
	FullRejects    uint64 // refused: tier at capacity
	LoadedPages    uint64 // pages promoted back on faults (excludes drops)
	CompressCPU    time.Duration
	DecompressCPU  time.Duration
	StoredBytes    uint64 // uncompressed bytes moved to far memory
	PayloadBytes   uint64 // compressed bytes written
	ValidationErrs uint64
}

// FarMemory is the tier interface the control plane drives. Store moves a
// cold page out of near memory; Load brings it back on a promotion fault.
type FarMemory interface {
	// Prime is told the pages a reclaim pass is about to Store, in store
	// order, and may do ahead of the stores, in parallel, work that
	// depends only on page content. It changes no outcome, cost or
	// statistic of the stores that follow; a tier with no such work does
	// nothing.
	Prime(m *mem.Memcg, ids []mem.PageID)
	Store(m *mem.Memcg, id mem.PageID) StoreResult
	Load(m *mem.Memcg, id mem.PageID) (LoadResult, error)
	// Drop discards a stored page without promoting it, when its job exits
	// or its machine restarts: no promotion is counted and no latency is
	// charged.
	Drop(m *mem.Memcg, id mem.PageID) error
	// Compact releases the tier's fragmented near memory and returns the
	// bytes reclaimed; the node agent calls it periodically (§5.1).
	Compact() uint64
	// FootprintBytes is the near-memory (DRAM) the tier itself consumes;
	// nonzero only for compression-based tiers.
	FootprintBytes() uint64
	Stats() Stats
}

// Pool is the zswap far-memory tier.
type Pool struct {
	arena  *zsmalloc.Arena
	cost   compress.CostModel
	cutoff int
	// capacityBytes bounds the arena's physical footprint; 0 = unbounded.
	capacityBytes uint64
	validate      bool
	stats         Stats
	zeroResident  uint64 // zero-filled pages currently held
	droppedPages  uint64 // pages discarded via Drop (not in Stats: see Drop)

	// Reusable scratch: page synthesis, compression destination, and the
	// validation-path decompression destination. Owned by the pool; only
	// valid within one Store/Load/Prime call (Prime's caller worker uses
	// the first two). Steady-state stores and loads therefore allocate
	// nothing.
	pageBuf   []byte
	compBuf   []byte
	decompBuf []byte
}

// zeroHandle marks a page stored via the same-filled optimization; it
// occupies no arena space.
const zeroHandle = zsmalloc.Handle(^uint64(0))

// Option configures a Pool.
type Option func(*Pool)

// WithCapacity bounds the pool's physical DRAM footprint in bytes.
func WithCapacity(n uint64) Option {
	return func(p *Pool) { p.capacityBytes = n }
}

// WithValidation stores real compressed payloads and verifies every Load
// round-trips to the page's exact content. Slower; used in tests and the
// quickstart example.
func WithValidation() Option {
	return func(p *Pool) { p.validate = true }
}

// NewPool creates an empty zswap pool with the lzo cost calibration.
func NewPool(opts ...Option) *Pool {
	p := &Pool{
		cost:    compress.DefaultLZOCost,
		cutoff:  DefaultCutoff,
		pageBuf: make([]byte, mem.PageSize),
		compBuf: make([]byte, 0, compress.CompressBound(mem.PageSize)),
	}
	for _, o := range opts {
		o(p)
	}
	var arenaOpts []zsmalloc.Option
	if p.validate {
		arenaOpts = append(arenaOpts, zsmalloc.RetainPayloads())
	}
	p.arena = zsmalloc.New(arenaOpts...)
	return p
}

var _ FarMemory = (*Pool)(nil)

// primeChunk is how many listed pages a Prime worker claims at a time.
// On BenchmarkReclaimCold/fill (2 vCPUs) chunks of 16 to 256 pages cost
// the same within noise; 64 claims the shared counter once per 64 page
// compressions, and a pass of two chunks (128 pages) already splits.
const primeChunk = 64

// Prime records in MemoSize the compressed size of every listed page
// whose size is unknown, so that the Stores that follow take it from
// there. The pages are compressed on up to GOMAXPROCS goroutines, the
// caller being one; a pass shorter than two chunks runs on the caller
// alone. Each worker writes only its own pages' MemoSize and the caller
// returns after all have finished, so the memcg is again the caller's
// alone. Zero-filled pages stay unrecorded, which keeps their stores on
// the same-filled path. A recorded size is a function of the page's
// content alone, so outcomes, simulated CPU, arena placement and where a
// full pool cuts the pass all still come from the Stores, in their order.
func (p *Pool) Prime(m *mem.Memcg, ids []mem.PageID) {
	p.prime(m, ids, primeChunk, runtime.GOMAXPROCS(0))
}

// prime is Prime with the chunk size and worker count as parameters.
func (p *Pool) prime(m *mem.Memcg, ids []mem.PageID, chunk, workers int) {
	chunks := (len(ids) + chunk - 1) / chunk
	if workers = min(workers, chunks); workers <= 1 {
		primePages(m, ids, p.pageBuf, p.compBuf)
		return
	}
	var next atomic.Int64
	work := func(page, comp []byte) {
		for c := int(next.Add(1)) - 1; c < chunks; c = int(next.Add(1)) - 1 {
			primePages(m, ids[c*chunk:min((c+1)*chunk, len(ids))], page, comp)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(make([]byte, mem.PageSize), make([]byte, 0, compress.CompressBound(mem.PageSize)))
		}()
	}
	work(p.pageBuf, p.compBuf)
	wg.Wait()
}

// primePages records the sizes of pages ids, synthesizing each into page
// and compressing it into comp.
func primePages(m *mem.Memcg, ids []mem.PageID, page, comp []byte) {
	for _, id := range ids {
		meta := m.Meta(id)
		if meta.MemoSize != 0 {
			continue
		}
		pagedata.Generate(page, meta.Class, meta.Seed)
		if isZeroFilled(page) {
			continue
		}
		comp = compress.Compress(comp[:0], page)
		meta.MemoSize = int32(len(comp))
	}
}

// Store compresses page id of memcg m into the pool. The page must be
// resident and reclaimable; violations panic because only kreclaimd calls
// Store and it filters eligibility first.
//
// A page is compressed once per content: the size of a real compression
// is recorded in the page's MemoSize, and while mem keeps it (until the
// page is written) a later store takes the size from there instead of
// regenerating and recompressing the page; Prime records the sizes of a
// whole pass ahead of its stores. The outcome, the simulated CPU charge
// and the arena placement are those of a real compression. A
// validating pool compresses on every store, since it keeps the payload,
// and counts a ValidationErrs when a recorded size disagrees.
func (p *Pool) Store(m *mem.Memcg, id mem.PageID) StoreResult {
	if !m.Reclaimable(id) {
		panic(fmt.Sprintf("zswap: storing non-reclaimable page %d of %s (flags %b)", id, m.Name(), m.Flags(id)))
	}
	meta := m.Meta(id)
	size := int(meta.MemoSize)
	if size == 0 || p.validate {
		pagedata.Generate(p.pageBuf, meta.Class, meta.Seed)
		if isZeroFilled(p.pageBuf) {
			if size != 0 {
				p.stats.ValidationErrs++
			}
			// Same-filled page: record it with no payload at negligible
			// cost (the kernel memsets on fault instead of decompressing).
			m.MarkCompressed(id, zeroHandle, 0)
			p.zeroResident++
			p.stats.ZeroPages++
			p.stats.StoredPages++
			p.stats.StoredBytes += mem.PageSize
			return StoreResult{Outcome: StoreZeroFilled, Ratio: float64(mem.PageSize)}
		}
		p.compBuf = compress.Compress(p.compBuf[:0], p.pageBuf)
		if size != 0 && size != len(p.compBuf) {
			p.stats.ValidationErrs++
		}
		size = len(p.compBuf)
		meta.MemoSize = int32(size)
	}
	cpu := p.cost.CompressLatency(mem.PageSize)

	if size > p.cutoff {
		m.SetFlags(id, mem.FlagIncompressible)
		cpu = p.cost.RejectLatency(mem.PageSize)
		p.stats.RejectedPages++
		p.stats.CompressCPU += cpu
		return StoreResult{Outcome: StoreRejectedIncompressible, CompressedSize: size, CPUTime: cpu}
	}
	if p.capacityBytes > 0 {
		needed := uint64(zsmalloc.ClassSize(size))
		if p.arena.Stats().PhysicalBytes+needed > p.capacityBytes {
			p.stats.FullRejects++
			p.stats.CompressCPU += cpu
			return StoreResult{Outcome: StoreRejectedFull, CompressedSize: size, CPUTime: cpu,
				Err: fmt.Errorf("storing page %d of %s: %w", id, m.Name(), ErrPoolFull)}
		}
	}
	var payload []byte
	if p.validate {
		payload = p.compBuf
	}
	h, err := p.arena.Alloc(size, payload)
	if err != nil {
		panic(fmt.Sprintf("zswap: arena alloc of %d bytes: %v", size, err))
	}
	m.MarkCompressed(id, h, size)
	p.stats.StoredPages++
	p.stats.StoredBytes += mem.PageSize
	p.stats.PayloadBytes += uint64(size)
	p.stats.CompressCPU += cpu
	return StoreResult{
		Outcome:        StoreOK,
		CompressedSize: size,
		Ratio:          compress.Ratio(mem.PageSize, size),
		CPUTime:        cpu,
	}
}

// Load resolves a promotion fault: it decompresses page id back into near
// memory, frees the pool space, and returns the CPU/latency cost.
func (p *Pool) Load(m *mem.Memcg, id mem.PageID) (LoadResult, error) {
	if !m.Flags(id).Has(mem.FlagCompressed) {
		return LoadResult{}, fmt.Errorf("zswap: load of non-compressed page %d of %s", id, m.Name())
	}
	meta := m.Meta(id)
	if meta.Handle == zeroHandle {
		if p.validate {
			pagedata.Generate(p.pageBuf, meta.Class, meta.Seed)
			if !isZeroFilled(p.pageBuf) {
				p.stats.ValidationErrs++
				return LoadResult{}, fmt.Errorf("zswap: page %d stored as zero-filled but content is not zero", id)
			}
		}
		m.MarkPromoted(id)
		p.zeroResident--
		p.stats.LoadedPages++
		// A memset-speed restore: charge only the fixed fault overhead.
		cpu := p.cost.DecompressBase
		p.stats.DecompressCPU += cpu
		return LoadResult{CPUTime: cpu, Latency: cpu}, nil
	}
	size := int(meta.CompressedSize)
	handle := meta.Handle
	if p.validate {
		stored, err := p.arena.Get(handle)
		if err != nil {
			return LoadResult{}, fmt.Errorf("zswap: %v", err)
		}
		got, err := compress.Decompress(p.decompBuf[:0], stored, mem.PageSize)
		if err != nil {
			p.stats.ValidationErrs++
			return LoadResult{}, fmt.Errorf("zswap: corrupt payload for page %d: %v", id, err)
		}
		p.decompBuf = got
		pagedata.Generate(p.pageBuf, meta.Class, meta.Seed)
		if !bytes.Equal(got, p.pageBuf) {
			p.stats.ValidationErrs++
			return LoadResult{}, fmt.Errorf("zswap: page %d content mismatch after decompression", id)
		}
	}
	if err := p.arena.Free(handle); err != nil {
		return LoadResult{}, fmt.Errorf("zswap: %v", err)
	}
	m.MarkPromoted(id)
	cpu := p.cost.DecompressLatency(size, mem.PageSize)
	p.stats.LoadedPages++
	p.stats.DecompressCPU += cpu
	return LoadResult{CompressedSize: size, CPUTime: cpu, Latency: cpu}, nil
}

// Drop discards a compressed page without promoting it (used when a job
// exits while holding far memory). Drops are counted via DroppedPages, not
// in Stats (the Stats struct is part of the golden machine fingerprint, so
// it must not grow fields), and deliberately not as LoadedPages: loads are
// promotion faults, drops are frees.
func (p *Pool) Drop(m *mem.Memcg, id mem.PageID) error {
	if !m.Flags(id).Has(mem.FlagCompressed) {
		return fmt.Errorf("zswap: drop of non-compressed page %d", id)
	}
	handle := m.Meta(id).Handle
	if handle == zeroHandle {
		p.zeroResident--
		p.droppedPages++
		m.MarkPromoted(id)
		m.ClearFlags(id, mem.FlagAccessed)
		return nil
	}
	if err := p.arena.Free(handle); err != nil {
		return err
	}
	p.droppedPages++
	m.MarkPromoted(id)
	m.ClearFlags(id, mem.FlagAccessed)
	return nil
}

// DroppedPages returns how many pages have been discarded via Drop since
// creation (cumulative, like Stats).
func (p *Pool) DroppedPages() uint64 { return p.droppedPages }

// Cutoff returns the acceptance cutoff for compressed payloads. Every page
// this pool holds has CompressedSize in (0, Cutoff] — or exactly 0 for
// zero-filled pages — which is how tier membership is recovered in tiered
// configurations (a device tier stores whole pages, CompressedSize ==
// mem.PageSize > Cutoff).
func (p *Pool) Cutoff() int { return p.cutoff }

// Compact runs zsmalloc compaction and returns reclaimed physical bytes.
// The node agent triggers this explicitly (§5.1).
func (p *Pool) Compact() uint64 { return p.arena.Compact() }

// FootprintBytes is the DRAM the compressed pool occupies right now.
func (p *Pool) FootprintBytes() uint64 { return p.arena.Stats().PhysicalBytes }

// SavedBytes is the DRAM freed by the pool right now: the uncompressed
// size of everything stored minus the pool's own footprint.
func (p *Pool) SavedBytes() uint64 {
	st := p.arena.Stats()
	uncompressed := uint64(st.Objects)*mem.PageSize + p.zeroResident*mem.PageSize
	if st.PhysicalBytes >= uncompressed {
		return 0
	}
	return uncompressed - st.PhysicalBytes
}

// isZeroFilled reports whether the page is entirely zero bytes.
func isZeroFilled(b []byte) bool {
	for ; len(b) >= 8; b = b[8:] {
		if binary.LittleEndian.Uint64(b) != 0 {
			return false
		}
	}
	for _, v := range b {
		if v != 0 {
			return false
		}
	}
	return true
}

// ZeroResident returns how many zero-filled pages the pool currently
// holds via the same-filled optimization. They occupy no arena space, so
// page-level conservation is Objects + ZeroResident == compressed pages.
func (p *Pool) ZeroResident() uint64 { return p.zeroResident }

// VerifyArena recounts the backing arena's accounting from its zspage
// lists (see zsmalloc.Arena.Verify). Full walk; deep-audit use only.
func (p *Pool) VerifyArena() error { return p.arena.Verify() }

// Stats returns cumulative pool statistics.
func (p *Pool) Stats() Stats { return p.stats }

// ArenaStats exposes the underlying allocator accounting.
func (p *Pool) ArenaStats() zsmalloc.Stats { return p.arena.Stats() }
