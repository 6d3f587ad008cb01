package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"sdfm/internal/controlplane"
	"sdfm/internal/fleet"
	"sdfm/internal/telemetry"
)

// loadgenConfig drives a saturation run against a live daemon (-loadgen):
// Agents goroutines register and then fire Reports back-to-back, each
// carrying Batch synthetic telemetry entries, over the negotiated report
// encoding.
type loadgenConfig struct {
	Target  string
	Agents  int
	Reports int // per agent
	Batch   int // entries per report
	Seed    int64
}

// loadgenReport is a run's aggregate accounting.
type loadgenReport struct {
	Sent     int // entries that left the generator
	Accepted int // acked by the controller's bounded queues
	Dropped  int // backpressure drops the controller reported
	Elapsed  time.Duration
}

// EntriesPerSec is the run's offered entry throughput.
func (r loadgenReport) EntriesPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Sent) / r.Elapsed.Seconds()
}

// runLoadgen saturates the daemon at cfg.Target: it synthesizes one
// machine's trace per agent, registers every agent, then lets them all
// report concurrently with no pacing. The returned throughput measures
// the controller's ingest path (stripes + wire format + HTTP), not the
// generator — entry synthesis happens before the clock starts.
func runLoadgen(ctx context.Context, cfg loadgenConfig) (loadgenReport, error) {
	if cfg.Agents <= 0 || cfg.Reports <= 0 || cfg.Batch <= 0 {
		return loadgenReport{}, fmt.Errorf("sdfmd: loadgen needs positive agents/reports/batch (%d/%d/%d)", cfg.Agents, cfg.Reports, cfg.Batch)
	}
	tr, err := fleet.Generate(fleet.Config{
		Clusters:           1,
		MachinesPerCluster: 1,
		JobsPerMachine:     4,
		Duration:           2 * time.Hour,
		Interval:           5 * time.Minute,
		Seed:               cfg.Seed,
	})
	if err != nil {
		return loadgenReport{}, fmt.Errorf("sdfmd: generating loadgen trace: %w", err)
	}
	batch := make([]telemetry.Entry, cfg.Batch)
	for i := range batch {
		batch[i] = tr.Entries[i%len(tr.Entries)]
	}

	agents := make([]*controlplane.Agent, cfg.Agents)
	for i := range agents {
		cl := controlplane.NewClient(cfg.Target)
		agents[i] = controlplane.NewAgent(fmt.Sprintf("loadgen/agent-%04d", i), cl)
		if err := agents[i].Register(ctx); err != nil {
			return loadgenReport{}, fmt.Errorf("sdfmd: registering loadgen agent %d: %w", i, err)
		}
	}

	var sent, accepted, dropped atomic.Int64
	var reportErr error
	var errOnce sync.Once
	var wg sync.WaitGroup
	start := time.Now()
	for _, a := range agents {
		wg.Add(1)
		go func(a *controlplane.Agent) {
			defer wg.Done()
			for r := 0; r < cfg.Reports; r++ {
				resp, err := a.Report(ctx, batch)
				if err != nil {
					errOnce.Do(func() { reportErr = err })
					return
				}
				sent.Add(int64(len(batch)))
				accepted.Add(int64(resp.Accepted))
				dropped.Add(int64(resp.Dropped))
			}
		}(a)
	}
	wg.Wait()
	rep := loadgenReport{
		Sent:     int(sent.Load()),
		Accepted: int(accepted.Load()),
		Dropped:  int(dropped.Load()),
		Elapsed:  time.Since(start),
	}
	if reportErr != nil {
		return rep, fmt.Errorf("sdfmd: loadgen report failed: %w", reportErr)
	}
	return rep, nil
}
