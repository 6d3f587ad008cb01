package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
)

// TestTrajectoryCommittedFiles reads the committed BENCH_46–48 files:
// each block lists the files in the order given with the base median
// each recorded, and only BENCH_48, the first written with the host
// anchor, has one to show.
func TestTrajectoryCommittedFiles(t *testing.T) {
	var files []string
	for _, n := range []int{48, 46, 47} {
		files = append(files, filepath.Join("..", "..", fmt.Sprintf("BENCH_%d.json", n)))
	}
	var out, errs bytes.Buffer
	if err := run(append([]string{"-trajectory"}, files...), &out, &errs); err != nil {
		t.Fatal(err)
	}
	blocks := map[string][]string{}
	var head string
	for _, line := range strings.Split(out.String(), "\n") {
		switch {
		case line == "":
		case strings.HasPrefix(line, "  "):
			blocks[head] = append(blocks[head], strings.Fields(line)...)
		default:
			head = line
		}
	}
	// 6 comparisons in BENCH_46, two seeds of cp_rounds and cp_ingest,
	// one of sim_fleet and sim_coldstore, each with six metrics.
	if len(blocks) != 6*6 {
		t.Errorf("%d blocks, want 36:\n%s", len(blocks), out.String())
	}
	rounds := blocks["cp_rounds  seed 42  op_ms_p50 (ms, lower is better)"]
	want := []string{
		files[0], "base", "median", "18.93", "anchor_ns", "1673490", "(q1", "1613802,", "q3", "2199284)",
		files[1], "base", "median", "21.58", "anchor_ns", "-",
		files[2], "base", "median", "21.17", "anchor_ns", "-",
	}
	if strings.Join(rounds, " ") != strings.Join(want, " ") {
		t.Errorf("cp_rounds seed 42 op_ms_p50 reads\n%q\nwant\n%q", rounds, want)
	}
	// cp_ingest seed 1337 was measured in BENCH_46 alone.
	if got := blocks["cp_ingest  seed 1337  work_per_s (1/s, higher is better)"]; len(got) != 6 || got[0] != files[1] {
		t.Errorf("cp_ingest seed 1337 work_per_s reads %q, want one BENCH_46 row", got)
	}
}

func TestTrajectoryFlagErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-trajectory"},
		{"-trajectory", "-base", ".", filepath.Join("..", "..", "BENCH_48.json")},
		{"-trajectory", filepath.Join("testdata", "missing.json")},
	} {
		var out, errs bytes.Buffer
		if err := run(args, &out, &errs); err == nil {
			t.Errorf("benchab %v: no error", args)
		}
	}
}
