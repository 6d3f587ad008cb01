package kreclaimd

import (
	"fmt"
	"testing"
	"time"

	"sdfm/internal/fault"
	"sdfm/internal/mem"
	"sdfm/internal/obs"
	"sdfm/internal/pagedata"
	"sdfm/internal/zswap"
)

func newJob(pages int, mix pagedata.Mix) *mem.Memcg {
	return mem.NewMemcg(mem.Config{Name: "job", Pages: pages, Mix: mix, SeedBase: 11})
}

func ageAll(m *mem.Memcg, age uint8) {
	for id := mem.PageID(0); int(id) < m.NumPages(); id++ {
		m.SetAge(id, age)
	}
}

func TestReclaimColdRespectsThreshold(t *testing.T) {
	m := newJob(100, pagedata.NewMix(0, 1, 0, 0, 0))
	pool := zswap.NewPool()
	r := New(pool)
	// Half the pages at age 10, half at age 2.
	for id := mem.PageID(0); int(id) < m.NumPages(); id++ {
		if id%2 == 0 {
			m.SetAge(id, 10)
		} else {
			m.SetAge(id, 2)
		}
	}
	res := r.ReclaimCold(m, 5)
	if res.Scanned != 100 {
		t.Errorf("Scanned = %d", res.Scanned)
	}
	if res.Stored != 50 {
		t.Errorf("Stored = %d, want 50", res.Stored)
	}
	if m.Compressed() != 50 {
		t.Errorf("Compressed = %d", m.Compressed())
	}
	// Pages below the threshold stay resident.
	if m.Flags(1).Has(mem.FlagCompressed) {
		t.Error("hot page was compressed")
	}
	if res.CPUTime <= 0 {
		t.Error("no CPU charged")
	}
	if res.StoredBytes == 0 {
		t.Error("no bytes recorded")
	}
}

func TestReclaimColdSkipsAccessedAndIneligible(t *testing.T) {
	m := newJob(4, pagedata.NewMix(0, 1, 0, 0, 0))
	r := New(zswap.NewPool())
	ageAll(m, 50)
	m.SetFlags(0, mem.FlagAccessed)
	m.SetFlags(1, mem.FlagMlocked)
	m.SetFlags(2, mem.FlagUnevictable)
	res := r.ReclaimCold(m, 5)
	if res.Stored != 1 {
		t.Errorf("Stored = %d, want 1 (only page 3)", res.Stored)
	}
	if !m.Flags(3).Has(mem.FlagCompressed) {
		t.Error("eligible page not compressed")
	}
}

func TestReclaimColdCountsRejects(t *testing.T) {
	m := newJob(20, pagedata.NewMix(0, 0, 0, 0, 1)) // all incompressible
	r := New(zswap.NewPool())
	ageAll(m, 100)
	res := r.ReclaimCold(m, 5)
	if res.Rejected != 20 || res.Stored != 0 {
		t.Errorf("Rejected=%d Stored=%d, want 20/0", res.Rejected, res.Stored)
	}
	// A second pass must skip the now-marked pages entirely.
	res2 := r.ReclaimCold(m, 5)
	if res2.Eligible != 0 {
		t.Errorf("second pass eligible = %d, want 0 (incompressible mark sticky)", res2.Eligible)
	}
}

func TestReclaimColdPoolFull(t *testing.T) {
	m := newJob(200, pagedata.NewMix(0, 1, 0, 0, 0))
	pool := zswap.NewPool(zswap.WithCapacity(16384)) // one zspage
	r := New(pool)
	ageAll(m, 100)
	res := r.ReclaimCold(m, 5)
	if res.PoolFull == 0 {
		t.Error("full pool never reported")
	}
	if res.Stored == 0 {
		t.Error("nothing stored before pool filled")
	}
}

func TestReclaimColdIdempotent(t *testing.T) {
	m := newJob(50, pagedata.NewMix(0, 1, 1, 1, 0))
	r := New(zswap.NewPool())
	ageAll(m, 100)
	first := r.ReclaimCold(m, 5)
	second := r.ReclaimCold(m, 5)
	if second.Stored != 0 || second.Eligible != 0 {
		t.Errorf("second pass stored %d (eligible %d); compressed pages must be skipped", second.Stored, second.Eligible)
	}
	if first.Stored+first.Rejected != 50 {
		t.Errorf("first pass covered %d pages, want 50", first.Stored+first.Rejected)
	}
}

// A steady-state pass — cold pages already stored, the reclaim tail kept
// non-empty by old pages whose accessed bit is set, so the candidate walk
// runs and finds nothing — allocates nothing.
func TestReclaimColdSteadyStateAllocatesNothing(t *testing.T) {
	m := newJob(1003, pagedata.NewMix(0, 1, 1, 1, 0))
	r := New(zswap.NewPool())
	ageAll(m, 100)
	for id := mem.PageID(0); int(id) < m.NumPages(); id += 7 {
		m.Touch(id, false)
	}
	if res := r.ReclaimCold(m, 5); res.Stored == 0 || m.ReclaimTail(5) == 0 {
		t.Fatalf("warm-up stored %d pages, reclaim tail %d", res.Stored, m.ReclaimTail(5))
	}
	var res Result
	if allocs := testing.AllocsPerRun(100, func() { res = r.ReclaimCold(m, 5) }); allocs != 0 {
		t.Errorf("steady-state ReclaimCold allocates %v times per pass", allocs)
	}
	if res.Scanned != 1003 || res.Eligible != 0 {
		t.Errorf("steady-state pass: %+v", res)
	}
}

func TestReclaimUnderPressureColdestFirst(t *testing.T) {
	m := newJob(100, pagedata.NewMix(0, 1, 0, 0, 0))
	r := New(zswap.NewPool())
	// Ages 0..99 (page i has age i%256).
	for id := mem.PageID(0); int(id) < m.NumPages(); id++ {
		m.SetAge(id, uint8(id))
	}
	res := r.ReclaimUnderPressure(m, 10*mem.PageSize)
	if res.Stored != 10 {
		t.Fatalf("Stored = %d, want 10", res.Stored)
	}
	// The 10 coldest pages (ages 90..99) must be the ones compressed.
	for id := 90; id < 100; id++ {
		if !m.Flags(mem.PageID(id)).Has(mem.FlagCompressed) {
			t.Errorf("coldest page %d not compressed", id)
		}
	}
	for id := 0; id < 90; id++ {
		if m.Flags(mem.PageID(id)).Has(mem.FlagCompressed) {
			t.Errorf("hot page %d compressed by pressure reclaim", id)
		}
	}
}

func TestReclaimUnderPressureStopsAtTarget(t *testing.T) {
	m := newJob(50, pagedata.NewMix(0, 1, 0, 0, 0))
	r := New(zswap.NewPool())
	ageAll(m, 200)
	res := r.ReclaimUnderPressure(m, 3*mem.PageSize)
	if res.Stored != 3 {
		t.Errorf("Stored = %d, want 3", res.Stored)
	}
}

func TestReclaimUnderPressureIgnoresSLO(t *testing.T) {
	// The reactive baseline compresses even age-0 (hot) pages if needed:
	// that unboundedness is exactly the paper's critique.
	m := newJob(10, pagedata.NewMix(0, 1, 0, 0, 0))
	r := New(zswap.NewPool())
	// All pages hot (age 0).
	res := r.ReclaimUnderPressure(m, 5*mem.PageSize)
	if res.Stored != 5 {
		t.Errorf("Stored = %d, want 5 (reactive mode has no coldness floor)", res.Stored)
	}
}

// TestReclaimAccountsEveryOutcome drives both reclaim kinds over a tier
// that produces all five store outcomes — a compressor-error window over a
// capacity-bounded pool fed zero, text and random pages — and requires
// every eligible page to be counted under exactly one of them, in the
// Result and in the metrics.
func TestReclaimAccountsEveryOutcome(t *testing.T) {
	plan := &fault.Plan{Name: "errors", Seed: 3, Events: []fault.Event{
		{Kind: fault.CompressorError, At: 0, Duration: time.Hour, Magnitude: 0.3},
	}}
	kinds := []struct {
		name    string
		reclaim func(*Reclaimer, *mem.Memcg) Result
	}{
		{"proactive", func(r *Reclaimer, m *mem.Memcg) Result { return r.ReclaimCold(m, 5) }},
		{"pressure", func(r *Reclaimer, m *mem.Memcg) Result { return r.ReclaimUnderPressure(m, 1<<40) }},
	}
	for _, k := range kinds {
		t.Run(k.name, func(t *testing.T) {
			m := newJob(400, pagedata.NewMix(1, 2, 0, 0, 1))
			ageAll(m, 100)
			pool := zswap.NewPool(zswap.WithCapacity(64 << 10))
			tier := fault.WrapTier(pool, fault.NewInjector(plan, "m0"), func() time.Duration { return time.Minute })
			r := New(tier)
			o := &obs.Observer{Reg: obs.NewRegistry()}
			r.SetMetrics(NewMetrics(o))

			res := k.reclaim(r, m)
			if res.Stored == 0 || res.Rejected == 0 || res.PoolFull == 0 || res.Errored == 0 {
				t.Fatalf("fixture must produce every outcome, got %+v", res)
			}
			if sum := res.Stored + res.Rejected + res.PoolFull + res.Errored; res.Eligible != sum {
				t.Errorf("Eligible = %d, but Stored+Rejected+PoolFull+Errored = %d (%+v)", res.Eligible, sum, res)
			}
			if got := tier.TierStats().InjectedErrors; uint64(res.Errored) != got {
				t.Errorf("Errored = %d, tier injected %d", res.Errored, got)
			}
			l := obs.Label{Key: "kind", Value: k.name}
			if got := o.Counter("sdfm_kreclaimd_errored_pages_total", "", l).Value(); got != float64(res.Errored) {
				t.Errorf("sdfm_kreclaimd_errored_pages_total{kind=%q} = %v, want %d", k.name, got, res.Errored)
			}
		})
	}
}

// recorder keeps every StoreResult and every Prime list its tier sees.
type recorder struct {
	zswap.FarMemory
	primed  [][]mem.PageID
	results []zswap.StoreResult
}

func (r *recorder) Prime(m *mem.Memcg, ids []mem.PageID) {
	r.primed = append(r.primed, append([]mem.PageID(nil), ids...))
	r.FarMemory.Prime(m, ids)
}

func (r *recorder) Store(m *mem.Memcg, id mem.PageID) zswap.StoreResult {
	sr := r.FarMemory.Store(m, id)
	r.results = append(r.results, sr)
	return sr
}

// TestReclaimColdPrimingChangesNothing runs one cold-start pass over two
// identical memcgs behind two identical tiers: through ReclaimCold, which
// primes the tier with the whole pass before storing it, and through the
// stores alone in the same order. Every store, the Result, the tier's
// Stats and arena, and each page's flags, handle and compressed size must
// agree, for each kind of tier.
func TestReclaimColdPrimingChangesNothing(t *testing.T) {
	const pages, threshold = 500, 5
	plan := &fault.Plan{Name: "errors", Seed: 3, Events: []fault.Event{
		{Kind: fault.CompressorError, At: 0, Duration: time.Hour, Magnitude: 0.3},
	}}
	tiered := func() zswap.FarMemory {
		profile := zswap.ProfileNVM
		profile.CapacityBytes = 60 * mem.PageSize
		return zswap.NewTieredPool(profile, zswap.NewPool(), 100)
	}
	cases := []struct {
		name string
		tier func() zswap.FarMemory
		pool func(zswap.FarMemory) *zswap.Pool // the compressed tier, if any
	}{
		{"plain", func() zswap.FarMemory { return zswap.NewPool() }, nil},
		{"capacity", func() zswap.FarMemory { return zswap.NewPool(zswap.WithCapacity(256 << 10)) }, nil},
		{"validating", func() zswap.FarMemory { return zswap.NewPool(zswap.WithValidation()) }, nil},
		{"tiered", tiered, func(f zswap.FarMemory) *zswap.Pool { return f.(*zswap.TieredPool).Tier2() }},
		{"fault", func() zswap.FarMemory {
			return fault.WrapTier(zswap.NewPool(), fault.NewInjector(plan, "m0"), func() time.Duration { return time.Minute })
		}, func(f zswap.FarMemory) *zswap.Pool { return f.(*fault.Tier).Inner().(*zswap.Pool) }},
		{"device", func() zswap.FarMemory { return zswap.NewDevicePool(zswap.ProfileNVM) },
			func(zswap.FarMemory) *zswap.Pool { return nil }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.pool == nil {
				tc.pool = func(f zswap.FarMemory) *zswap.Pool { return f.(*zswap.Pool) }
			}
			var mems [2]*mem.Memcg
			var tiers [2]*recorder
			var res [2]Result
			for i := range mems {
				mems[i] = newJob(pages, pagedata.DefaultMix)
				for id := mem.PageID(0); id < pages; id++ {
					mems[i].SetAge(id, uint8(50+id%100))
				}
				tiers[i] = &recorder{FarMemory: tc.tier()}
			}
			res[0] = New(tiers[0]).ReclaimCold(mems[0], threshold)
			res[1].Scanned = pages
			for _, id := range mems[1].AppendColdReclaimable(nil, threshold) {
				res[1].count(tiers[1].Store(mems[1], id))
			}

			if len(tiers[0].primed) != 1 || len(tiers[0].primed[0]) != pages || len(tiers[1].primed) != 0 {
				t.Fatalf("ReclaimCold primed %d lists, want one of its %d pages", len(tiers[0].primed), pages)
			}
			if res[0] != res[1] {
				t.Fatalf("primed pass %+v, stores alone %+v", res[0], res[1])
			}
			if tc.name == "capacity" && (res[0].PoolFull == 0 || res[0].Stored == 0) {
				t.Fatalf("fixture: the pool must fill mid-pass, got %+v", res[0])
			}
			for i, sr := range tiers[0].results {
				want := tiers[1].results[i]
				if fmt.Sprintf("%+v", sr) != fmt.Sprintf("%+v", want) {
					t.Fatalf("store %d: primed %+v, alone %+v", i, sr, want)
				}
			}
			st := tiers[0].Stats()
			if st != tiers[1].Stats() || st.ValidationErrs != 0 {
				t.Fatalf("stats: primed %+v, alone %+v", st, tiers[1].Stats())
			}
			if p := tc.pool(tiers[0].FarMemory); p != nil && p.ArenaStats() != tc.pool(tiers[1].FarMemory).ArenaStats() {
				t.Fatalf("arena: primed %+v, alone %+v", p.ArenaStats(), tc.pool(tiers[1].FarMemory).ArenaStats())
			}
			for id := mem.PageID(0); id < pages; id++ {
				a, b := mems[0].Meta(id), mems[1].Meta(id)
				if mems[0].Flags(id) != mems[1].Flags(id) || a.Handle != b.Handle || a.CompressedSize != b.CompressedSize {
					t.Fatalf("page %d: primed flags %b %+v, alone flags %b %+v", id, mems[0].Flags(id), *a, mems[1].Flags(id), *b)
				}
			}
		})
	}
}
