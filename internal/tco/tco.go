// Package tco models the total-cost-of-ownership arithmetic of far memory
// (§6.1): how cold-memory coverage, the cold-memory ceiling, and the
// compression ratio translate into DRAM cost savings.
package tco

import "fmt"

// Model holds fleet cost parameters.
type Model struct {
	// DRAMCostPerGB in dollars.
	DRAMCostPerGB float64
	// FleetDRAMGB is the provisioned DRAM across the fleet.
	FleetDRAMGB float64
}

// DefaultModel uses round planning numbers: $3/GB DRAM over a 100 PB
// fleet (order of magnitude of a large WSC operator).
var DefaultModel = Model{DRAMCostPerGB: 3, FleetDRAMGB: 100e6}

// SavingsFraction returns the fraction of DRAM cost saved by
// software-defined far memory:
//
//	coldFraction × coverage × (1 − 1/compressionRatio)
//
// With the paper's numbers — 32% cold ceiling, 20% coverage, 3x ratio
// (67% per-page saving) — this yields the reported 4–5% DRAM TCO saving.
func SavingsFraction(coldFraction, coverage, compressionRatio float64) float64 {
	if compressionRatio <= 1 {
		return 0
	}
	f := coldFraction * coverage * (1 - 1/compressionRatio)
	if f < 0 {
		return 0
	}
	return f
}

// Savings returns the absolute dollar savings under the model.
func (m Model) Savings(coldFraction, coverage, compressionRatio float64) float64 {
	return m.DRAMCostPerGB * m.FleetDRAMGB * SavingsFraction(coldFraction, coverage, compressionRatio)
}

// PerPageCostReduction is the cost reduction of a compressed page
// relative to DRAM: 1 − 1/ratio (67% at the paper's 3x median).
func PerPageCostReduction(compressionRatio float64) float64 {
	if compressionRatio <= 1 {
		return 0
	}
	return 1 - 1/compressionRatio
}

// Report is a one-line summary of the savings arithmetic.
func Report(coldFraction, coverage, compressionRatio float64) string {
	return fmt.Sprintf(
		"cold=%.1f%% coverage=%.1f%% ratio=%.1fx perPage=%.0f%% -> DRAM TCO saved %.2f%%",
		coldFraction*100, coverage*100, compressionRatio,
		PerPageCostReduction(compressionRatio)*100,
		SavingsFraction(coldFraction, coverage, compressionRatio)*100,
	)
}
