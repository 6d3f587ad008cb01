package fleet

import (
	"fmt"
	"time"

	"sdfm/internal/simtime"
	"sdfm/internal/telemetry"
)

// referenceGenerateTo is GenerateTo's serial sweep as it was before slot
// parallelism, kept as the oracle the parallel engine must reproduce
// entry for entry: one goroutine walks the intervals and, within each,
// the slots in build order, appending every live instance's entry. Every
// entry comes from exactEntry, one math.Exp per tail term, so the oracle
// also holds the fast tail sums to the values they stand for.
func referenceGenerateTo(cfg Config, sink telemetry.EntrySink) error {
	return referenceSweep(cfg, func(inst *jobInstance, t time.Duration, thresholdsSec []float64, intervalMin float64) error {
		tails := make([]uint64, 2*len(thresholdsSec))
		return sink.Append(inst.exactEntry(t, inst.draw(t), thresholdsSec, intervalMin, tails))
	})
}

// referenceSweep walks cfg's fleet as referenceGenerateTo does and calls
// visit once per entry, in emission order, stopping at its first error.
func referenceSweep(cfg Config, visit func(inst *jobInstance, t time.Duration, thresholdsSec []float64, intervalMin float64) error) error {
	cfg.fillDefaults()
	if cfg.Interval <= 0 || cfg.Duration < cfg.Interval {
		return fmt.Errorf("fleet: duration %v shorter than interval %v", cfg.Duration, cfg.Interval)
	}
	meta := telemetry.NewTrace()
	rng := simtime.Rand(cfg.Seed, "fleet")

	instances := buildInstances(cfg, rng)
	scanPeriod := time.Duration(meta.ScanPeriodSeconds) * time.Second
	thresholdsSec := make([]float64, len(meta.Thresholds))
	for i, b := range meta.Thresholds {
		thresholdsSec[i] = (time.Duration(b) * scanPeriod).Seconds()
	}

	intervalMin := cfg.Interval.Minutes()
	cursors := make([]int, len(instances))
	for t := cfg.Interval; t <= cfg.Duration; t += cfg.Interval {
		for s, chain := range instances {
			i := cursors[s]
			for i < len(chain) && t > chain[i].end {
				i++
			}
			cursors[s] = i
			if i == len(chain) {
				continue
			}
			inst := chain[i]
			if t <= inst.start {
				continue
			}
			if err := visit(inst, t, thresholdsSec, intervalMin); err != nil {
				return err
			}
		}
	}
	return nil
}
