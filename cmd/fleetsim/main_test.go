package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"sdfm/internal/cluster"
	"sdfm/internal/core"
	"sdfm/internal/node"
	"sdfm/internal/telemetry"
	"sdfm/internal/tracestore"
)

func runOK(t *testing.T, args ...string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := run(args, &buf); err != nil {
		t.Fatalf("fleetsim %s: %v", strings.Join(args, " "), err)
	}
	return buf.String()
}

// wallTime matches the wall-clock suffix of the "simulated"/"ran" lines.
var wallTime = regexp.MustCompile(`(?m) in [0-9.]+[µm]?s$`)

// The SLO statistic on the machines beside the model's, and the share of
// intervals over the SLO on each side, as every run prints them.
const (
	sloLine  = "SLO statistic (p98 of job mean promotion rates): machines "
	overLine = "over the SLO: machines "
)

// TestReportDeterministic: one seed, one report, wall time aside.
func TestReportDeterministic(t *testing.T) {
	args := []string{"-machines", "2", "-jobs", "4", "-hours", "1"}
	first := wallTime.ReplaceAllString(runOK(t, args...), "")
	second := wallTime.ReplaceAllString(runOK(t, args...), "")
	if first != second {
		t.Fatalf("second run printed\n%s\nfirst printed\n%s", second, first)
	}
	for _, want := range []string{"simulated 1h0m0s across 2 machines/4 jobs\n", "coverage per machine:", sloLine, overLine} {
		if !strings.Contains(first, want) {
			t.Errorf("report lacks %q:\n%s", want, first)
		}
	}
}

// TestRejectsHostileFlags: a duration that is not positive or past
// time.Duration's range, and a fleet size that is not positive, are
// refused with an error (exit status 1) before anything is simulated,
// printed or written — -writeplan's file included — instead of reporting
// a negative or wrapped duration over an empty fleet.
func TestRejectsHostileFlags(t *testing.T) {
	dir := t.TempDir()
	for _, bad := range [][]string{
		{"-hours", "0"}, {"-hours", "-1"}, {"-hours", "NaN"}, {"-hours", "1e300"}, {"-hours", "3e6"},
		{"-jobs", "0"}, {"-jobs", "-3"}, {"-machines", "0"}, {"-machines", "-2"},
	} {
		plan := filepath.Join(dir, "plan.json")
		for _, extra := range [][]string{nil, {"-writeplan", plan}} {
			args := append(append([]string{"-machines", "1", "-jobs", "1", "-hours", "1"}, bad...), extra...)
			var stdout bytes.Buffer
			if err := run(args, &stdout); err == nil || stdout.Len() != 0 {
				t.Errorf("fleetsim %s: error %v, printed %q", strings.Join(args, " "), err, stdout.String())
			}
			if _, err := os.Stat(plan); err == nil {
				t.Errorf("fleetsim %s wrote %s", strings.Join(args, " "), plan)
				os.Remove(plan)
			}
		}
	}
}

// TestPlanReport: -writeplan's plan fed back through -plan prints every
// section, one line per rollout stage reached, and two readable traces.
func TestPlanReport(t *testing.T) {
	dir := t.TempDir()
	plan := filepath.Join(dir, "plan.json")
	if got := runOK(t, "-writeplan", plan, "-hours", "1"); got != "wrote default fault plan to "+plan+"\n" {
		t.Fatalf("-writeplan printed %q", got)
	}
	prefix := filepath.Join(dir, "run")
	out := runOK(t, "-plan", plan, "-machines", "2", "-jobs", "4", "-hours", "1", "-savetrace", prefix)
	for _, want := range []string{
		`plan "default":`, "ran baseline ", "ran default ",
		"== live simulation ==", "== promotion-rate SLO", "== telemetry pipeline ==", "== staged rollout",
		"baseline: " + sloLine, "default: " + sloLine, "baseline: " + overLine, "default: " + overLine,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report lacks %q:\n%s", want, out)
		}
	}

	var stages []string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "stage ") {
			stages = append(stages, line)
		}
	}
	accepted := strings.Contains(out, "rollout accepted:")
	rolledBack := strings.Contains(out, "rollout rolled back at")
	switch {
	case accepted == rolledBack:
		t.Errorf("want exactly one rollout verdict:\n%s", out)
	case len(stages) == 0 || len(stages) > 3:
		t.Errorf("%d stage lines, want 1 to 3:\n%s", len(stages), out)
	case accepted && len(stages) != 3:
		t.Errorf("accepted after %d stages, want all 3:\n%s", len(stages), out)
	case rolledBack && !strings.Contains(stages[len(stages)-1], "ROLLED BACK"):
		t.Errorf("rolled back, but the last stage reached is healthy:\n%s", out)
	}

	for _, suffix := range []string{"baseline", "faulted"} {
		path := prefix + "-" + suffix + ".trace"
		h, err := tracestore.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		trace, err := h.ReadTrace()
		h.Close()
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("wrote %s (%d entries, store format)\n", path, trace.Len())
		if trace.Len() == 0 || !strings.Contains(out, want) {
			t.Errorf("%s reads back %d entries; report lacks %q", path, trace.Len(), want)
		}
	}
}

// TestDemographics: one block per job, each with a row per idle-age bucket.
func TestDemographics(t *testing.T) {
	out := runOK(t, "-demographics", "-machines", "1", "-jobs", "6", "-hours", "1", "-mode", "disabled")
	_, table, ok := strings.Cut(out, "\njob ")
	if !ok {
		t.Fatalf("no demographics:\n%s", out)
	}
	blocks := strings.Split("job "+table, "\n\n")
	if len(blocks) != 6 {
		t.Fatalf("%d blocks, want one per job (6):\n%s", len(blocks), out)
	}
	for _, b := range blocks {
		lines := strings.Split(strings.TrimSuffix(b, "\n"), "\n")
		if want := 2 + 1 + len(telemetry.DefaultThresholds); len(lines) != want {
			t.Errorf("block has %d lines, want %d:\n%s", len(lines), want, b)
		}
	}
}

// TestModelConservativeOnMachines: on fleetsim's default fleet (4
// machines, 12 jobs, 8 h, K = 95, S = 10 min), the fast model replaying
// the machines' own trace predicts an SLO statistic at or above the one
// the machines realised, so a (K, S) the tuner accepts is not one the
// machines break. No upper band is asserted: the model reads ×1.1–1.2 the
// machines' value and the cause of that gap is open.
func TestModelConservativeOnMachines(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("three 8-hour page-accurate fleet runs")
	}
	for seed := int64(1); seed <= 3; seed++ {
		cfg := cluster.Config{Name: "fleetsim", Machines: 4, Mode: node.ModeProactive,
			Params: core.Params{K: 95, S: 10 * time.Minute}, Seed: seed}
		r, err := runFleet(cfg, 12, 8*time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("seed %d: machines %.5f/min, model %.5f/min", seed, r.sloRate, r.model.P98Rate)
		if r.sloRate <= 0 || r.model.P98Rate < r.sloRate {
			t.Errorf("seed %d: model predicts %.5f/min, below the machines' %.5f/min",
				seed, r.model.P98Rate, r.sloRate)
		}
	}
}
