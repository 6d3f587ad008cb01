package node

import (
	"testing"
	"time"

	"sdfm/internal/core"
	"sdfm/internal/obs"
	"sdfm/internal/workload"
	"sdfm/internal/zswap"
)

// TestFarMemoryExportsReadTierState: every sdfm_far_* series equals the
// state of the tier its label names, on each tier configuration, after a
// run that stores, rejects, loads and (on job exit) drops pages.
func TestFarMemoryExportsReadTierState(t *testing.T) {
	type tierCase struct {
		label string
		stats func() zswap.Stats
		drops func() uint64
	}
	capped := func(capacity uint64) zswap.DeviceProfile {
		p := zswap.ProfileNVM
		p.CapacityBytes = capacity
		return p
	}
	pool := zswap.NewPool()
	dev := zswap.NewDevicePool(capped(24 << 20))
	tiered := zswap.NewTieredPool(capped(8<<20), nil, 5)
	for _, tc := range []struct {
		name  string
		tier  zswap.FarMemory
		tiers []tierCase
		used  *zswap.DevicePool // the tier exporting sdfm_far_used_bytes
	}{
		{"zswap", pool, []tierCase{{"zswap", pool.Stats, pool.DroppedPages}}, nil},
		{"device", dev, []tierCase{{"device", dev.Stats, dev.DroppedPages}}, dev},
		{"tiered", tiered, []tierCase{
			{"tier1", tiered.Tier1().Stats, tiered.Tier1().DroppedPages},
			{"tier2", tiered.Tier2().Stats, tiered.Tier2().DroppedPages},
		}, tiered.Tier1()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := obs.NewMulti().Observer(tc.name)
			m := newMachine(t, Config{
				Mode:   ModeProactive,
				Params: core.Params{K: 95, S: 5 * time.Minute},
				Seed:   52,
				Tier:   tc.tier,
				Obs:    o,
			})
			addWorkload(t, m, workload.BigtableServer, 1)
			j := addWorkload(t, m, workload.LogProcessor, 2)
			if err := m.Run(time.Hour); err != nil {
				t.Fatal(err)
			}
			if err := m.RemoveJob(j); err != nil {
				t.Fatal(err)
			}
			var dropped uint64
			for _, tr := range tc.tiers {
				l := obs.Label{Key: "tier", Value: tr.label}
				st := tr.stats()
				if st.StoredPages == 0 {
					t.Fatalf("tier %s stored nothing; the comparison is vacuous", tr.label)
				}
				dropped += tr.drops()
				for name, want := range map[string]uint64{
					"sdfm_far_stored_pages_total":   st.StoredPages,
					"sdfm_far_zero_pages_total":     st.ZeroPages,
					"sdfm_far_rejected_pages_total": st.RejectedPages,
					"sdfm_far_full_rejects_total":   st.FullRejects,
					"sdfm_far_loaded_pages_total":   st.LoadedPages,
					"sdfm_far_dropped_pages_total":  tr.drops(),
					"sdfm_far_payload_bytes_total":  st.PayloadBytes,
				} {
					if got := o.Counter(name, "", l).Value(); got != float64(want) {
						t.Errorf("%s{tier=%q} = %v, tier reports %d", name, tr.label, got, want)
					}
				}
			}
			if dropped == 0 {
				t.Fatal("the job exit dropped no pages; the dropped series went untested")
			}
			if tc.used != nil {
				label := tc.tiers[0].label
				got := o.Gauge("sdfm_far_used_bytes", "", obs.Label{Key: "tier", Value: label}).Value()
				if got != float64(tc.used.UsedBytes()) || got == 0 {
					t.Errorf("sdfm_far_used_bytes{tier=%q} = %v, tier holds %d", label, got, tc.used.UsedBytes())
				}
			}
		})
	}
}
