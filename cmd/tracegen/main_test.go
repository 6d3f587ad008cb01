package main

import (
	"bytes"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"sdfm/internal/fleet"
)

// TestPrintStatsDeterministic: same trace, same bytes, with the per-cluster
// lines in cluster order. Map iteration order must not leak into the output.
func TestPrintStatsDeterministic(t *testing.T) {
	trace, err := fleet.Generate(fleet.Config{
		Clusters: 4, MachinesPerCluster: 2, JobsPerMachine: 2,
		Duration: time.Hour, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var first string
	for i := 0; i < 20; i++ {
		var buf bytes.Buffer
		printStats(&buf, trace)
		if i == 0 {
			first = buf.String()
		} else if buf.String() != first {
			t.Fatalf("run %d printed\n%s\nrun 0 printed\n%s", i, buf.String(), first)
		}
	}
	var clusters []string
	for _, line := range strings.Split(first, "\n") {
		if rest, ok := strings.CutPrefix(line, "  "); ok {
			name, _, _ := strings.Cut(rest, ":")
			clusters = append(clusters, name)
		}
	}
	if len(clusters) != 4 || !sort.StringsAreSorted(clusters) {
		t.Errorf("per-cluster lines for %q, want 4 clusters in order:\n%s", clusters, first)
	}
}

// TestMetricsWrittenInBothModes: -metricsout writes the generation run's
// metrics whether the trace goes to a file or is only summarized (-stats).
func TestMetricsWrittenInBothModes(t *testing.T) {
	dir := t.TempDir()
	small := []string{"-clusters", "1", "-machines", "2", "-jobs", "2", "-hours", "1"}
	for _, mode := range [][]string{{"-stats"}, {"-o", filepath.Join(dir, "t.trace")}} {
		prom := filepath.Join(dir, "tg.prom")
		os.Remove(prom)
		args := append(append([]string{"-metricsout", prom}, mode...), small...)
		var stdout bytes.Buffer
		if err := run(args, &stdout); err != nil {
			t.Fatalf("tracegen %v: %v", args, err)
		}
		got, err := os.ReadFile(prom)
		if err != nil {
			t.Fatalf("tracegen %v wrote no metrics: %v", args, err)
		}
		if !strings.Contains(string(got), "sdfm_fleet_entries_total") {
			t.Errorf("tracegen %v metrics lack sdfm_fleet_entries_total:\n%s", args, got)
		}
	}
}
