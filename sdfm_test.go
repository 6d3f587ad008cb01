package sdfm_test

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"sdfm"
)

// TestEndToEndMachine exercises the public API the way the quickstart
// example does: build a machine, run it, inspect savings.
func TestEndToEndMachine(t *testing.T) {
	m, err := sdfm.NewMachine(sdfm.MachineConfig{
		Name:      "m0",
		Cluster:   "api-test",
		DRAMBytes: 1 << 30,
		Mode:      sdfm.ModeProactive,
		Params:    sdfm.Params{K: 95, S: 10 * time.Minute},
		Seed:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	w, err := sdfm.NewWorkload(sdfm.WorkloadConfig{
		Archetype: sdfm.LogProcessor, Name: "logs", Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.AddJob(w); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(2 * time.Hour); err != nil {
		t.Fatal(err)
	}
	if m.CompressedPages() == 0 {
		t.Fatal("no pages in far memory")
	}
	if m.Coverage() <= 0 {
		t.Fatal("no coverage")
	}
}

// TestEndToEndPipeline exercises trace generation -> replay -> autotune ->
// qualification through the facade.
func TestEndToEndPipeline(t *testing.T) {
	trace, err := sdfm.GenerateFleetTrace(sdfm.FleetConfig{
		Clusters: 1, MachinesPerCluster: 6, JobsPerMachine: 4,
		Duration: 8 * time.Hour, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	obj := sdfm.TraceObjective(trace, sdfm.DefaultSLO)

	baseline, err := obj(sdfm.DefaultParams)
	if err != nil {
		t.Fatal(err)
	}
	if baseline.Coverage <= 0 {
		t.Fatal("baseline replay produced no coverage")
	}

	res, err := sdfm.Autotune(obj, sdfm.TunerConfig{
		SLO: sdfm.DefaultSLO, Seed: 4, Iterations: 5, InitSamples: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := sdfm.QualifyAndDeploy(res.Best.Params, sdfm.DefaultParams, obj, sdfm.DefaultSLO)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Chosen != res.Best.Params && dec.Chosen != sdfm.DefaultParams {
		t.Fatalf("deployment chose unknown params %+v", dec.Chosen)
	}
}

func TestTraceStoreRoundTripThroughFacade(t *testing.T) {
	trace, err := sdfm.GenerateFleetTrace(sdfm.FleetConfig{
		Clusters: 1, MachinesPerCluster: 2, JobsPerMachine: 2,
		Duration: time.Hour, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "fleet.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := sdfm.WriteTraceStore(f, trace); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	h, err := sdfm.OpenTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	got, err := h.ReadTrace()
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != trace.Len() {
		t.Fatalf("loaded %d entries, want %d", got.Len(), trace.Len())
	}
}

func TestDeviceTiersThroughFacade(t *testing.T) {
	// The same control plane drives a hardware tier.
	m, err := sdfm.NewMachine(sdfm.MachineConfig{
		Name: "nvm-machine", Cluster: "api-test",
		DRAMBytes: 1 << 30,
		Mode:      sdfm.ModeProactive,
		Params:    sdfm.Params{K: 95, S: 10 * time.Minute},
		Tier:      sdfm.NewDevicePool(sdfm.ProfileNVM),
		Seed:      6,
	})
	if err != nil {
		t.Fatal(err)
	}
	w, err := sdfm.NewWorkload(sdfm.WorkloadConfig{
		Archetype: sdfm.LogProcessor, Name: "logs", Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.AddJob(w); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(time.Hour); err != nil {
		t.Fatal(err)
	}
	if m.CompressedPages() == 0 {
		t.Fatal("device tier holds no pages")
	}
	if m.Tier().FootprintBytes() != 0 {
		t.Error("device tier must not consume DRAM")
	}
}

func TestTCOSavingsFraction(t *testing.T) {
	got := sdfm.TCOSavingsFraction(0.32, 0.20, 3)
	if got < 0.04 || got > 0.05 {
		t.Errorf("paper arithmetic = %.4f, want 4-5%%", got)
	}
}

func TestClusterThroughFacade(t *testing.T) {
	c, err := sdfm.NewCluster(sdfm.ClusterConfig{
		Name: "c", Machines: 2, DRAMPerMachine: 1 << 30,
		Mode: sdfm.ModeProactive, Params: sdfm.Params{K: 95, S: 10 * time.Minute},
		Seed: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Populate(4, nil, 9); err != nil {
		t.Fatal(err)
	}
	if err := c.Run(time.Hour); err != nil {
		t.Fatal(err)
	}
	if c.JobCount() != 4 {
		t.Errorf("jobs = %d", c.JobCount())
	}
}
