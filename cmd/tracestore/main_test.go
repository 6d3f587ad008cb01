package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sdfm/internal/fleet"
	"sdfm/internal/tracestore"
)

// writeTrace stores a small generated trace at dir/name and returns its
// path and bytes.
func writeTrace(t *testing.T, dir, name string) (string, []byte) {
	t.Helper()
	trace, err := fleet.Generate(fleet.Config{
		Clusters: 1, MachinesPerCluster: 2, JobsPerMachine: 2,
		Duration: 2 * time.Hour, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tracestore.WriteTrace(&buf, trace); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path, buf.Bytes()
}

// TestConvertRefusesItsOwnInput: creating the output truncates it, so an
// output that is the input — by the same name or through another link —
// is refused and the input left as it was.
func TestConvertRefusesItsOwnInput(t *testing.T) {
	dir := t.TempDir()
	in, want := writeTrace(t, dir, "in.trace")
	link := filepath.Join(dir, "link.trace")
	if err := os.Link(in, link); err != nil {
		t.Fatal(err)
	}
	for _, out := range []string{in, link} {
		err := convert([]string{"-o", out, in})
		if err == nil || !strings.Contains(err.Error(), "is the input") {
			t.Errorf("convert -o %s %s: err %v, want a refusal", out, in, err)
		}
		if got, err := os.ReadFile(in); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("convert -o %s changed its input: %d bytes, want %d (%v)", out, len(got), len(want), err)
		}
	}
}

// TestConvertRechunks: a conversion into a new file keeps every entry and
// lays them out in chunks of the requested size.
func TestConvertRechunks(t *testing.T) {
	dir := t.TempDir()
	in, _ := writeTrace(t, dir, "in.trace")
	out := filepath.Join(dir, "out.trace")
	if err := convert([]string{"-chunk", "5", "-o", out, in}); err != nil {
		t.Fatal(err)
	}
	src, err := tracestore.Open(in)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	dst, err := tracestore.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	n := dst.NumEntries()
	if n == 0 || n != src.NumEntries() {
		t.Fatalf("converted %d entries of %d", n, src.NumEntries())
	}
	if want := (n + 4) / 5; dst.NumChunks() != want {
		t.Errorf("%d chunks of at most 5 entries for %d entries, want %d", dst.NumChunks(), n, want)
	}
}
