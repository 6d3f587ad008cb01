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
// the slots in build order, appending every live instance's entry.
func referenceGenerateTo(cfg Config, sink telemetry.EntrySink) error {
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
			tails := make([]uint64, 2*len(thresholdsSec))
			if err := sink.Append(inst.entry(t, thresholdsSec, intervalMin, tails)); err != nil {
				return err
			}
		}
	}
	return nil
}
