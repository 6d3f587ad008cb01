package tco

import (
	"math"
	"strings"
	"testing"
)

func TestSavingsFractionPaperNumbers(t *testing.T) {
	// 32% cold ceiling, 20% coverage, 3x ratio => 4-5% (paper §6.1).
	got := SavingsFraction(0.32, 0.20, 3)
	if got < 0.04 || got > 0.05 {
		t.Errorf("SavingsFraction = %.4f, want 4-5%%", got)
	}
}

func TestSavingsFractionEdges(t *testing.T) {
	if SavingsFraction(0.3, 0.2, 1) != 0 {
		t.Error("ratio 1 should save nothing")
	}
	if SavingsFraction(0.3, 0.2, 0.5) != 0 {
		t.Error("ratio < 1 should save nothing")
	}
	if SavingsFraction(0, 0.2, 3) != 0 {
		t.Error("no cold memory, no savings")
	}
}

func TestSavingsMonotone(t *testing.T) {
	if SavingsFraction(0.32, 0.25, 3) <= SavingsFraction(0.32, 0.20, 3) {
		t.Error("more coverage must save more")
	}
	if SavingsFraction(0.32, 0.2, 4) <= SavingsFraction(0.32, 0.2, 3) {
		t.Error("better ratio must save more")
	}
}

func TestPerPageCostReduction(t *testing.T) {
	if got := PerPageCostReduction(3); math.Abs(got-2.0/3) > 1e-12 {
		t.Errorf("3x ratio reduction = %v, want 0.667", got)
	}
	if PerPageCostReduction(1) != 0 || PerPageCostReduction(0) != 0 {
		t.Error("degenerate ratios must be 0")
	}
}

func TestModelSavingsDollars(t *testing.T) {
	m := Model{DRAMCostPerGB: 3, FleetDRAMGB: 100e6}
	got := m.Savings(0.32, 0.20, 3)
	// ~4.27% of $300M = ~$12.8M: "millions of dollars at WSC scale".
	if got < 10e6 || got > 16e6 {
		t.Errorf("savings = $%.0f, want ~$12.8M", got)
	}
}

func TestReport(t *testing.T) {
	r := Report(0.32, 0.20, 3)
	if !strings.Contains(r, "coverage=20.0%") || !strings.Contains(r, "ratio=3.0x") {
		t.Errorf("Report = %q", r)
	}
}
