package main

import (
	"bytes"
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
