package zswap

import (
	"fmt"

	"sdfm/internal/mem"
)

// TieredPool is the paper's envisioned end state (§8): multiple tiers of
// far memory — a fixed-capacity sub-µs hardware tier-1 (e.g. NVM DIMMs)
// in front of a single-µs software tier-2 (zswap) — managed by the same
// cold-page control plane.
//
// Placement policy: pages that are only mildly cold (age below SplitAge
// scan periods at demotion time) are more likely to be promoted soon, so
// they go to the fast tier while it has room; deeply cold pages, and any
// overflow, go to the compressed tier. Promotions are resolved from
// whichever tier holds the page.
type TieredPool struct {
	tier1 *DevicePool
	tier2 *Pool
	// SplitAge is the demotion-time age (in scan periods) below which a
	// page prefers tier-1.
	splitAge uint8
}

// NewTieredPool combines a hardware tier-1 with a zswap tier-2. The
// tier-1 profile should have CapacityBytes set; an unbounded tier-1 would
// simply absorb everything.
func NewTieredPool(tier1Profile DeviceProfile, tier2 *Pool, splitAge uint8) *TieredPool {
	if tier2 == nil {
		tier2 = NewPool()
	}
	return &TieredPool{
		tier1:    NewDevicePool(tier1Profile),
		tier2:    tier2,
		splitAge: splitAge,
	}
}

var _ FarMemory = (*TieredPool)(nil)

// Tier1 exposes the hardware tier.
func (t *TieredPool) Tier1() *DevicePool { return t.tier1 }

// Tier2 exposes the compressed tier.
func (t *TieredPool) Tier2() *Pool { return t.tier2 }

// Store places a cold page on a tier by the placement policy.
//
// Tier membership is recoverable from page metadata: the device tier
// stores whole pages (CompressedSize == PageSize), which zswap can never
// produce (its acceptance cutoff is well below a full page, and
// zero-filled pages record size 0).
func (t *TieredPool) Store(m *mem.Memcg, id mem.PageID) StoreResult {
	if m.Age(id) < t.splitAge {
		res := t.tier1.Store(m, id)
		if res.Outcome != StoreRejectedFull {
			return res
		}
		// Tier-1 full: spill to the compressed tier.
	}
	return t.tier2.Store(m, id)
}

// Load promotes a page from whichever tier holds it.
func (t *TieredPool) Load(m *mem.Memcg, id mem.PageID) (LoadResult, error) {
	if !m.Flags(id).Has(mem.FlagCompressed) {
		return LoadResult{}, fmt.Errorf("zswap: tiered load of non-stored page %d of %s", id, m.Name())
	}
	if t.holdsInTier1(m.Meta(id)) {
		return t.tier1.Load(m, id)
	}
	return t.tier2.Load(m, id)
}

// Drop discards a stored page without promotion cost. Both tiers count
// the drop via their DroppedPages accessors, not as LoadedPages.
func (t *TieredPool) Drop(m *mem.Memcg, id mem.PageID) error {
	if !m.Flags(id).Has(mem.FlagCompressed) {
		return fmt.Errorf("zswap: tiered drop of non-stored page %d", id)
	}
	if t.holdsInTier1(m.Meta(id)) {
		return t.tier1.Drop(m, id)
	}
	return t.tier2.Drop(m, id)
}

// DroppedPages returns cumulative drops across both tiers.
func (t *TieredPool) DroppedPages() uint64 {
	return t.tier1.DroppedPages() + t.tier2.DroppedPages()
}

func (t *TieredPool) holdsInTier1(meta *mem.PageMeta) bool {
	return int(meta.CompressedSize) == mem.PageSize
}

// FootprintBytes is the DRAM consumed by the software tier (the hardware
// tier lives on its own media).
func (t *TieredPool) FootprintBytes() uint64 { return t.tier2.FootprintBytes() }

// Compact forwards to the compressed tier's arena.
func (t *TieredPool) Compact() uint64 { return t.tier2.Compact() }

// Stats merges both tiers field-by-field; all fields stay cumulative (see
// the Stats type). ZeroPages comes only from tier-2: a device tier stores
// zero-filled pages as whole pages like any other.
func (t *TieredPool) Stats() Stats {
	a, b := t.tier1.Stats(), t.tier2.Stats()
	return Stats{
		StoredPages:    a.StoredPages + b.StoredPages,
		ZeroPages:      b.ZeroPages,
		RejectedPages:  a.RejectedPages + b.RejectedPages,
		FullRejects:    a.FullRejects + b.FullRejects,
		LoadedPages:    a.LoadedPages + b.LoadedPages,
		CompressCPU:    a.CompressCPU + b.CompressCPU,
		DecompressCPU:  a.DecompressCPU + b.DecompressCPU,
		StoredBytes:    a.StoredBytes + b.StoredBytes,
		PayloadBytes:   a.PayloadBytes + b.PayloadBytes,
		ValidationErrs: a.ValidationErrs + b.ValidationErrs,
	}
}
