package node

import (
	"testing"
	"time"

	"sdfm/internal/core"
	"sdfm/internal/fault"
	"sdfm/internal/obs"
	"sdfm/internal/workload"
	"sdfm/internal/zswap"
)

// TestFarMemoryExportsReadTierState: every sdfm_far_*{tier="zswap"} series
// equals the state of the zswap pool at the bottom of the machine's tier
// stack, bare or under the fault wrapper, after a run that stores,
// rejects, loads and (on job exit) drops pages.
func TestFarMemoryExportsReadTierState(t *testing.T) {
	plan := &fault.Plan{Name: "errors", Seed: 3, Events: []fault.Event{
		{Kind: fault.CompressorError, At: 0, Duration: 2 * time.Hour, Magnitude: 0.3},
	}}
	wrappedPool := zswap.NewPool()
	wrapped := fault.WrapTier(wrappedPool, fault.NewInjector(plan, "m0"), func() time.Duration { return time.Minute })
	pool := zswap.NewPool()
	for _, tc := range []struct {
		name string
		tier zswap.FarMemory
		pool *zswap.Pool // the pool the series must read
	}{
		{"zswap", pool, pool},
		{"fault", wrapped, wrappedPool},
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
			st := tc.pool.Stats()
			if st.StoredPages == 0 {
				t.Fatal("the pool stored nothing; the comparison is vacuous")
			}
			if tc.pool.DroppedPages() == 0 {
				t.Fatal("the job exit dropped no pages; the dropped series went untested")
			}
			l := obs.Label{Key: "tier", Value: "zswap"}
			for name, want := range map[string]uint64{
				"sdfm_far_stored_pages_total":   st.StoredPages,
				"sdfm_far_zero_pages_total":     st.ZeroPages,
				"sdfm_far_rejected_pages_total": st.RejectedPages,
				"sdfm_far_full_rejects_total":   st.FullRejects,
				"sdfm_far_loaded_pages_total":   st.LoadedPages,
				"sdfm_far_dropped_pages_total":  tc.pool.DroppedPages(),
				"sdfm_far_payload_bytes_total":  st.PayloadBytes,
			} {
				if got := o.Counter(name, "", l).Value(); got != float64(want) {
					t.Errorf("%s{tier=\"zswap\"} = %v, pool reports %d", name, got, want)
				}
			}
		})
	}
	if wrapped.TierStats().InjectedErrors == 0 {
		t.Error("the fault plan injected no store errors; the wrapper sat idle")
	}
}
