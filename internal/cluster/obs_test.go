package cluster

import (
	"strings"
	"testing"
	"time"

	"sdfm/internal/core"
	"sdfm/internal/fault"
	"sdfm/internal/node"
	"sdfm/internal/obs"
)

// TestWorkerCountInstrumentedFourMatchesOne is the instrumented
// determinism guarantee: with per-machine metrics and tracing attached
// (plus faults and breakers, to exercise every instrumented path), four
// workers must produce not just one worker's simulation state but its
// *exports*, byte for byte — each machine writes only to its own
// observer, and both exporters render in stable creation order, so
// worker scheduling cannot leak into the output.
func TestWorkerCountInstrumentedFourMatchesOne(t *testing.T) {
	duration := 2 * time.Hour
	build := func() (*Cluster, *obs.Multi) {
		hub := obs.NewMulti(obs.Label{Key: "run", Value: "instr"})
		c := newCluster(t, Config{
			Machines: 3, DRAMPerMachine: 2 * gib,
			Mode: node.ModeProactive, Params: core.Params{K: 95, S: 10 * time.Minute},
			Seed:    60,
			Faults:  fault.DefaultPlan(60, duration),
			Breaker: node.BreakerConfig{Enabled: true},
			Obs:     hub,
		})
		if err := c.Populate(6, nil, 61); err != nil {
			t.Fatal(err)
		}
		return c, hub
	}
	one, oneHub := build()
	if err := one.RunParallel(duration, 1); err != nil {
		t.Fatal(err)
	}
	four, fourHub := build()
	if err := four.RunParallel(duration, 4); err != nil {
		t.Fatal(err)
	}
	sameMachines(t, one, four)

	oneProm, oneChrome := renderObs(t, oneHub)
	fourProm, fourChrome := renderObs(t, fourHub)
	if oneProm != fourProm {
		t.Fatalf("Prometheus exports diverge between one worker and four:\none:\n%s\nfour:\n%s", oneProm, fourProm)
	}
	if oneChrome != fourChrome {
		t.Fatal("Chrome trace exports diverge between one worker and four")
	}
	if !strings.Contains(oneProm, `machine="m0002"`) {
		t.Fatal("export is missing per-machine series")
	}
	if !strings.Contains(oneChrome, `"ph":"X"`) {
		t.Fatal("trace export has no spans")
	}
}

// renderObs renders a hub's metrics and spans as the exporters would.
func renderObs(t *testing.T, hub *obs.Multi) (prom, chrome string) {
	t.Helper()
	var p, c strings.Builder
	if err := hub.WritePrometheus(&p); err != nil {
		t.Fatal(err)
	}
	if err := hub.WriteChromeTrace(&c); err != nil {
		t.Fatal(err)
	}
	return p.String(), c.String()
}

// TestMachineObsCountersTrackSimulation pins the instrument values to the
// machine's own counters after a run: the pushed step count, and the
// promotion and occupancy series that read the simulation state at
// export.
func TestMachineObsCountersTrackSimulation(t *testing.T) {
	hub := obs.NewMulti()
	c := newCluster(t, Config{
		Machines: 1, DRAMPerMachine: 2 * gib,
		Mode: node.ModeProactive, Params: core.Params{K: 95, S: 10 * time.Minute},
		Seed: 7,
		Obs:  hub,
	})
	if err := c.Populate(2, nil, 8); err != nil {
		t.Fatal(err)
	}
	if err := c.Run(2 * time.Hour); err != nil {
		t.Fatal(err)
	}
	m := c.Machines()[0]
	o := hub.Observers()[0]

	// Registering an already-registered instrument returns the same
	// series, so reading back through the observer is exact.
	steps := o.Counter("sdfm_node_steps_total", "Completed machine steps.")
	if want := 2 * time.Hour / (120 * time.Second); steps.Value() != float64(want) {
		t.Errorf("steps counter %v, machine stepped %d times", steps.Value(), want)
	}
	var promos uint64
	for _, j := range m.Jobs() {
		promos += j.Promotions
	}
	pc := o.Counter("sdfm_node_promotions_total", "Promotion faults served.")
	if pc.Value() != float64(promos) {
		t.Errorf("promotions counter %v, jobs account %d", pc.Value(), promos)
	}
	resident := o.Gauge("sdfm_node_resident_bytes", "Near memory held by running jobs.")
	if resident.Value() != float64(m.ResidentBytes()) {
		t.Errorf("resident gauge %v, machine reports %d", resident.Value(), m.ResidentBytes())
	}
	compressed := o.Gauge("sdfm_node_compressed_pages", "Pages currently in far memory.")
	if compressed.Value() != float64(m.CompressedPages()) {
		t.Errorf("compressed gauge %v, machine reports %d", compressed.Value(), m.CompressedPages())
	}
	if m.CompressedPages() == 0 {
		t.Fatal("benchmark workload compressed nothing; gauge comparison is vacuous")
	}
}
