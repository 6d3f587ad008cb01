package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// gitRepo makes a git repository with one committed file in a temporary
// directory and returns its path.
func gitRepo(t *testing.T) string {
	t.Helper()
	if _, err := exec.LookPath("git"); err != nil {
		t.Skip("git not installed")
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "tracked.txt"), []byte("x\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"init", "-q"},
		{"add", "tracked.txt"},
		{"-c", "user.name=bench", "-c", "user.email=bench@example.com", "commit", "-q", "-m", "init"},
	} {
		if out, err := exec.Command("git", append([]string{"-C", dir}, args...)...).CombinedOutput(); err != nil {
			t.Fatalf("git %v: %v\n%s", args, err, out)
		}
	}
	return dir
}

// TestTreeOfIgnoresOut: the -out file alone, before and after it exists
// and in a subdirectory, leaves a tree clean; any other change still
// makes it dirty.
func TestTreeOfIgnoresOut(t *testing.T) {
	dir := gitRepo(t)
	out := filepath.Join(dir, "BENCH.json")
	if tr := treeOf(dir, out); tr.Dirty || tr.Commit == "unknown" {
		t.Fatalf("clean tree, no out file yet: %+v", tr)
	}
	if err := os.WriteFile(out, []byte("{}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if tr := treeOf(dir, out); tr.Dirty {
		t.Fatalf("only the out file is untracked, yet the tree reads dirty: %+v", tr)
	}
	if tr := treeOf(dir, ""); !tr.Dirty {
		t.Fatal("with no -out, an untracked file does not make the tree dirty")
	}
	nested := filepath.Join(dir, "runs", "b.json")
	if err := os.MkdirAll(filepath.Dir(nested), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(nested, []byte("{}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if tr := treeOf(filepath.Join(dir, "runs"), nested); !tr.Dirty {
		t.Fatal("BENCH.json is untracked beside a nested out file, yet the tree reads clean")
	}
	if err := os.Remove(out); err != nil {
		t.Fatal(err)
	}
	if tr := treeOf(filepath.Join(dir, "runs"), nested); tr.Dirty {
		t.Fatalf("only the nested out file is untracked, yet the tree reads dirty: %+v", tr)
	}
	for name, change := range map[string]func() error{
		"untracked file": func() error { return os.WriteFile(filepath.Join(dir, "other.txt"), nil, 0o644) },
		"edited file":    func() error { return os.WriteFile(filepath.Join(dir, "tracked.txt"), []byte("y\n"), 0o644) },
	} {
		if err := change(); err != nil {
			t.Fatal(err)
		}
		if tr := treeOf(dir, nested); !tr.Dirty {
			t.Errorf("%s: the tree reads clean", name)
		}
	}
	if tr := treeOf(t.TempDir(), out); tr.Commit != "unknown" {
		t.Errorf("outside a checkout: %+v, want commit unknown", tr)
	}
}

// TestAnchorDigest: the anchor compresses the same bytes to the same
// output on every host and in every tree, so its time is comparable
// across files.
func TestAnchorDigest(t *testing.T) {
	set := anchorSet()
	if len(set) != anchorPages {
		t.Fatalf("%d anchor pages, want %d", len(set), anchorPages)
	}
	const want = 0x6e394428bd743cda
	if got := anchorPass(set, nil); got != want {
		t.Fatalf("anchor digest %#016x, want %#016x", got, uint64(want))
	}
	if ns := timeAnchor(set); ns <= 0 {
		t.Fatalf("anchor timed at %d ns", ns)
	}
}
