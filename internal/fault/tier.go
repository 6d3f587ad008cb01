package fault

import (
	"fmt"
	"time"

	"sdfm/internal/mem"
	"sdfm/internal/zswap"
)

// TierStats counts tier-level injections.
type TierStats struct {
	InjectedErrors uint64 // stores failed by CompressorError windows
	SlowedStores   uint64 // stores charged extra CPU by slowdown windows
	SlowedLoads    uint64 // loads charged extra CPU by slowdown windows
}

// Tier wraps a far-memory tier with compressor fault injection: during
// CompressorError windows a fraction of stores fail transiently, and
// during CompressorSlowdown windows (de)compression CPU and latency are
// multiplied. With a nil injector it is a transparent passthrough.
type Tier struct {
	inner zswap.FarMemory
	inj   *Injector
	now   func() time.Duration
	stats TierStats
}

// WrapTier wraps inner. now supplies the machine's simulated time.
func WrapTier(inner zswap.FarMemory, inj *Injector, now func() time.Duration) *Tier {
	return &Tier{inner: inner, inj: inj, now: now}
}

var _ zswap.FarMemory = (*Tier)(nil)

// Inner returns the wrapped tier.
func (t *Tier) Inner() zswap.FarMemory { return t.inner }

// TierStats returns injection counters.
func (t *Tier) TierStats() TierStats { return t.stats }

// Store injects transient failures and slowdowns around the inner store.
func (t *Tier) Store(m *mem.Memcg, id mem.PageID) zswap.StoreResult {
	now := t.now()
	if t.inj.StoreErrorDue(now) {
		t.stats.InjectedErrors++
		return zswap.StoreResult{
			Outcome: zswap.StoreErrored,
			Err:     fmt.Errorf("fault: injected compressor error on page %d of %s: %w", id, m.Name(), zswap.ErrStoreFailed),
		}
	}
	res := t.inner.Store(m, id)
	if f := t.inj.SlowdownFactor(now); f > 1 && res.CPUTime > 0 {
		res.CPUTime = time.Duration(float64(res.CPUTime) * f)
		t.stats.SlowedStores++
	}
	return res
}

// Load injects slowdowns around the inner load.
func (t *Tier) Load(m *mem.Memcg, id mem.PageID) (zswap.LoadResult, error) {
	res, err := t.inner.Load(m, id)
	if err != nil {
		return res, err
	}
	if f := t.inj.SlowdownFactor(t.now()); f > 1 {
		res.CPUTime = time.Duration(float64(res.CPUTime) * f)
		res.Latency = time.Duration(float64(res.Latency) * f)
		t.stats.SlowedLoads++
	}
	return res, nil
}

// Drop delegates to the inner tier.
func (t *Tier) Drop(m *mem.Memcg, id mem.PageID) error { return t.inner.Drop(m, id) }

// Compact delegates to the inner tier.
func (t *Tier) Compact() uint64 { return t.inner.Compact() }

// FootprintBytes delegates to the inner tier.
func (t *Tier) FootprintBytes() uint64 { return t.inner.FootprintBytes() }

// Stats delegates to the inner tier.
func (t *Tier) Stats() zswap.Stats { return t.inner.Stats() }
