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
// metrics, the exact-fallback count among them, whether the trace goes
// to a file or is only summarized (-stats).
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
		for _, name := range []string{"sdfm_fleet_entries_total", "sdfm_fleet_exact_fallbacks_total"} {
			if !strings.Contains(string(got), name) {
				t.Errorf("tracegen %v metrics lack %s:\n%s", args, name, got)
			}
		}
	}
}

// TestRejectsHostileFlags: a fleet size or duration that is not positive,
// or a duration past time.Duration's range, is refused with an error
// (exit status 1) and no output file, instead of writing an empty trace
// or silently generating the 24 h default.
func TestRejectsHostileFlags(t *testing.T) {
	dir := t.TempDir()
	for _, bad := range [][]string{
		{"-clusters", "-1"}, {"-clusters", "0"}, {"-machines", "0"}, {"-jobs", "-2"},
		{"-hours", "0"}, {"-hours", "-3"}, {"-hours", "NaN"}, {"-hours", "3e6"},
	} {
		out := filepath.Join(dir, "t.trace")
		args := append([]string{"-o", out, "-clusters", "1", "-machines", "1", "-jobs", "1", "-hours", "1"}, bad...)
		var stdout bytes.Buffer
		if err := run(args, &stdout); err == nil {
			t.Errorf("tracegen %v: no error; printed %q", bad, stdout.String())
		}
		if _, err := os.Stat(out); err == nil {
			t.Errorf("tracegen %v wrote %s", bad, out)
			os.Remove(out)
		}
	}
}
