package experiments

import (
	"fmt"
	"time"

	"sdfm/internal/cluster"
	"sdfm/internal/core"
	"sdfm/internal/mem"
	"sdfm/internal/node"
	"sdfm/internal/simtime"
	"sdfm/internal/stats"
	"sdfm/internal/workload"
	"sdfm/internal/zswap"
)

const gib = uint64(1) << 30

// detailedScale sizes the page-accurate experiments.
func detailedScale(scale Scale) (machines, jobsPerMachine int, duration time.Duration) {
	switch scale {
	case ScaleMedium:
		return 6, 4, 12 * time.Hour
	case ScaleLarge:
		return 12, 6, 24 * time.Hour
	default:
		return 3, 3, 5 * time.Hour
	}
}

// Fig8Result is the CPU-overhead distribution for compression and
// decompression, per job and per machine.
type Fig8Result struct {
	JobCompressP50, JobCompressP98     float64
	JobDecompressP50, JobDecompressP98 float64
	MachCompressP50, MachDecompressP50 float64
	JobCompressCDF, JobDecompressCDF   []stats.Point
	Jobs                               int
}

// Fig8CPUOverhead reproduces Figure 8 with the page-accurate simulator.
func Fig8CPUOverhead(scale Scale, seed int64) (Fig8Result, error) {
	machines, jobs, duration := detailedScale(scale)
	c, err := cluster.New(cluster.Config{
		Name:           "overhead",
		Machines:       machines,
		DRAMPerMachine: 4 * gib,
		Mode:           node.ModeProactive,
		Params:         core.Params{K: 95, S: 10 * time.Minute},
		Seed:           seed,
	})
	if err != nil {
		return Fig8Result{}, err
	}
	if err := c.Populate(machines*jobs, nil, seed); err != nil {
		return Fig8Result{}, err
	}
	if err := c.Run(duration); err != nil {
		return Fig8Result{}, err
	}
	var jobComp, jobDecomp, machComp, machDecomp []float64
	for _, m := range c.Machines() {
		var mc, md, cpu time.Duration
		for _, j := range m.Jobs() {
			if j.CPUUsed == 0 {
				continue
			}
			jobComp = append(jobComp, j.CPUOverheadCompress())
			jobDecomp = append(jobDecomp, j.CPUOverheadDecompress())
			mc += j.CompressCPU
			md += j.DecompressCPU
			cpu += j.CPUUsed
		}
		if cpu > 0 {
			machComp = append(machComp, float64(mc)/float64(cpu))
			machDecomp = append(machDecomp, float64(md)/float64(cpu))
		}
	}
	return Fig8Result{
		JobCompressP50:    stats.Percentile(jobComp, 50),
		JobCompressP98:    stats.Percentile(jobComp, 98),
		JobDecompressP50:  stats.Percentile(jobDecomp, 50),
		JobDecompressP98:  stats.Percentile(jobDecomp, 98),
		MachCompressP50:   stats.Percentile(machComp, 50),
		MachDecompressP50: stats.Percentile(machDecomp, 50),
		JobCompressCDF:    stats.NewCDF(jobComp).Points(15),
		JobDecompressCDF:  stats.NewCDF(jobDecomp).Points(15),
		Jobs:              len(jobComp),
	}, nil
}

// Render prints the key percentiles.
func (r Fig8Result) Render() string {
	rows := [][]string{
		{"per-job compression", pct(r.JobCompressP50), pct(r.JobCompressP98)},
		{"per-job decompression", pct(r.JobDecompressP50), pct(r.JobDecompressP98)},
		{"per-machine compression", pct(r.MachCompressP50), "-"},
		{"per-machine decompression", pct(r.MachDecompressP50), "-"},
	}
	return fmt.Sprintf("Figure 8: CPU overhead as fraction of job CPU (%d jobs)\n", r.Jobs) +
		table([]string{"metric", "p50", "p98"}, rows)
}

func pct(v float64) string { return fmt.Sprintf("%.4f%%", v*100) }

// Fig9Result holds the compression characteristics (Figure 9a/9b).
type Fig9Result struct {
	// RatioP50 etc. describe per-job byte-weighted compression ratios of
	// accepted pages.
	RatioP50, RatioMin, RatioMax float64
	RatioCDF                     []stats.Point
	// IncompressibleFrac is the fraction of reclaim attempts rejected.
	IncompressibleFrac float64
	// LatencyP50Us / LatencyP98Us are decompression latencies in µs.
	LatencyP50Us, LatencyP98Us float64
	LatencyCDF                 []stats.Point
	Promotions                 int
}

// Fig9CompressionCharacteristics reproduces Figures 9a and 9b.
func Fig9CompressionCharacteristics(scale Scale, seed int64) (Fig9Result, error) {
	machines, jobs, duration := detailedScale(scale)
	c, err := cluster.New(cluster.Config{
		Name:           "compression",
		Machines:       machines,
		DRAMPerMachine: 4 * gib,
		Mode:           node.ModeProactive,
		Params:         core.Params{K: 90, S: 10 * time.Minute},
		CollectSamples: true,
		Seed:           seed,
	})
	if err != nil {
		return Fig9Result{}, err
	}
	if err := c.Populate(machines*jobs, nil, seed); err != nil {
		return Fig9Result{}, err
	}
	if err := c.Run(duration); err != nil {
		return Fig9Result{}, err
	}
	var ratios, latencies []float64
	var stored, rejected uint64
	for _, m := range c.Machines() {
		st := m.Tier().Stats()
		stored += st.StoredPages
		rejected += st.RejectedPages
		for _, j := range m.Jobs() {
			if j.StoredBytes > 0 {
				ratios = append(ratios, j.CompressionRatio())
			}
			latencies = append(latencies, j.LatencySamples()...)
		}
	}
	res := Fig9Result{
		RatioP50:     stats.Percentile(ratios, 50),
		RatioMin:     stats.Min(ratios),
		RatioMax:     stats.Max(ratios),
		RatioCDF:     stats.NewCDF(ratios).Points(15),
		LatencyP50Us: stats.Percentile(latencies, 50),
		LatencyP98Us: stats.Percentile(latencies, 98),
		LatencyCDF:   stats.NewCDF(latencies).Points(15),
		Promotions:   len(latencies),
	}
	if stored+rejected > 0 {
		res.IncompressibleFrac = float64(rejected) / float64(stored+rejected)
	}
	return res, nil
}

// Render prints the distributions' key numbers.
func (r Fig9Result) Render() string {
	rows := [][]string{
		{"compression ratio p50", fmt.Sprintf("%.2fx", r.RatioP50)},
		{"compression ratio range", fmt.Sprintf("%.1fx-%.1fx", r.RatioMin, r.RatioMax)},
		{"incompressible attempts", fmt.Sprintf("%.1f%%", r.IncompressibleFrac*100)},
		{"decompression latency p50", fmt.Sprintf("%.1f µs", r.LatencyP50Us)},
		{"decompression latency p98", fmt.Sprintf("%.1f µs", r.LatencyP98Us)},
		{"promotions observed", fmt.Sprintf("%d", r.Promotions)},
	}
	return "Figure 9: compression characteristics\n" + table([]string{"metric", "value"}, rows)
}

// Fig10Result is the Bigtable A/B case study.
type Fig10Result struct {
	// CoverageSeries is the experiment group's coverage per sample tick.
	CoverageSeries []stats.Point // X = hours, Y = coverage
	CoverageMin    float64
	CoverageMax    float64
	// IPCDeltaPct is the relative user-IPC difference experiment-control
	// in percent (negative = slower with zswap).
	IPCDeltaPct float64
	// NoisePct is the observed machine-to-machine IPC noise (1 sigma).
	NoisePct float64
	// WithinNoise reports |delta| <= 2 sigma.
	WithinNoise bool
}

// Fig10BigtableAB reproduces Figure 10: random half of the machines get
// zswap (experiment), the rest run with it disabled (control); both serve
// Bigtable-like workloads. User-level IPC is modelled per machine as a
// baseline with machine-to-machine noise, reduced by cycle interference
// from (de)compression — kernel zswap cycles themselves are excluded from
// user IPC, so only indirect interference (cache/bandwidth) applies.
func Fig10BigtableAB(scale Scale, seed int64) (Fig10Result, error) {
	machines, _, duration := detailedScale(scale)
	machines *= 2 // equal-sized groups
	c, err := cluster.New(cluster.Config{
		Name:           "bigtable-ab",
		Machines:       machines,
		DRAMPerMachine: 4 * gib,
		ModeFn: func(i int) node.Mode {
			if i%2 == 0 {
				return node.ModeProactive
			}
			return node.ModeDisabled
		},
		Params: core.Params{K: 95, S: 10 * time.Minute},
		Seed:   seed,
	})
	if err != nil {
		return Fig10Result{}, err
	}
	for i, m := range c.Machines() {
		for j := 0; j < 2; j++ {
			w, err := workload.New(workload.Config{
				Archetype: workload.BigtableServer,
				Name:      fmt.Sprintf("bigtable-%d-%d", i, j),
				Seed:      seed + int64(i*10+j),
			})
			if err != nil {
				return Fig10Result{}, err
			}
			if _, err := m.AddJob(w); err != nil {
				return Fig10Result{}, err
			}
		}
	}

	exp := c.Group(node.ModeProactive)
	var res Fig10Result
	res.CoverageMin = 1
	// Step in lock-step, sampling coverage hourly.
	sample := time.Hour
	for t := sample; t <= duration; t += sample {
		if err := c.Run(t); err != nil {
			return Fig10Result{}, err
		}
		var cold, compressed float64
		for _, m := range exp {
			cold += float64(m.ColdPagesAtMin())
			compressed += float64(m.CompressedPages())
		}
		cov := 0.0
		if cold > 0 {
			cov = compressed / cold
		}
		res.CoverageSeries = append(res.CoverageSeries, stats.Point{X: t.Hours(), Y: cov})
		if t > duration/4 { // after warmup
			if cov < res.CoverageMin {
				res.CoverageMin = cov
			}
			if cov > res.CoverageMax {
				res.CoverageMax = cov
			}
		}
	}

	// User-level IPC proxy per machine.
	const interference = 0.3 // fraction of zswap cycles felt by user code
	rng := simtime.Rand(seed, "fig10-ipc")
	ipc := func(m *node.Machine) float64 {
		var overhead, cpu time.Duration
		for _, j := range m.Jobs() {
			overhead += j.CompressCPU + j.DecompressCPU + j.StallTime
			cpu += j.CPUUsed
		}
		frac := 0.0
		if cpu > 0 {
			frac = float64(overhead) / float64(cpu)
		}
		return (1 - interference*frac) * (1 + 0.01*rng.NormFloat64())
	}
	var expIPC, ctlIPC []float64
	for i, m := range c.Machines() {
		if i%2 == 0 {
			expIPC = append(expIPC, ipc(m))
		} else {
			ctlIPC = append(ctlIPC, ipc(m))
		}
	}
	me, mc := stats.Mean(expIPC), stats.Mean(ctlIPC)
	res.IPCDeltaPct = (me/mc - 1) * 100
	res.NoisePct = stats.Stddev(ctlIPC) * 100
	res.WithinNoise = res.IPCDeltaPct > -2*res.NoisePct && res.IPCDeltaPct < 2*res.NoisePct
	return res, nil
}

// Render prints the case study.
func (r Fig10Result) Render() string {
	rows := [][]string{
		{"coverage range", fmt.Sprintf("%.1f%%-%.1f%%", r.CoverageMin*100, r.CoverageMax*100)},
		{"IPC delta", fmt.Sprintf("%+.3f%%", r.IPCDeltaPct)},
		{"machine noise (1σ)", fmt.Sprintf("%.3f%%", r.NoisePct)},
		{"within noise", fmt.Sprintf("%v", r.WithinNoise)},
	}
	return "Figure 10: Bigtable A/B case study\n" + table([]string{"metric", "value"}, rows)
}

// A1Result compares proactive and reactive far memory (§3.2) in two
// regimes. With headroom, the proactive system harvests savings
// continuously while stock (reactive) zswap realizes nothing until the
// machine saturates. Under overcommit, reactive direct reclaim stalls the
// allocating application in bursts, while the proactive system prefers
// failing fast (eviction).
type A1Result struct {
	// Headroom regime: mean DRAM freed over the run.
	ProactiveSavedBytesMean float64
	ReactiveSavedBytesMean  float64
	// Overcommit regime: reactive stall bursts vs proactive evictions.
	ReactiveStall      time.Duration
	ReactiveBursts     int
	ReactiveSavedLate  float64 // savings realized only at saturation
	ProactiveEvictions int
}

// A1ReactiveVsProactive reproduces the §3.2 comparison.
func A1ReactiveVsProactive(scale Scale, seed int64) (A1Result, error) {
	_, _, duration := detailedScale(scale)
	build := func(mode node.Mode, dramFrac int) (*node.Machine, error) {
		w, err := workload.New(workload.Config{
			Archetype: workload.LogProcessor, Name: "logs", Seed: seed,
		})
		if err != nil {
			return nil, err
		}
		m, err := node.NewMachine(node.Config{
			Name:      "m-" + mode.String(),
			Cluster:   "a1",
			DRAMBytes: uint64(w.Pages()) * mem.PageSize * uint64(dramFrac) / 100,
			Mode:      mode,
			Params:    core.Params{K: 95, S: 10 * time.Minute},
			Seed:      seed,
		})
		if err != nil {
			return nil, err
		}
		if _, err := m.AddJob(w); err != nil {
			return nil, err
		}
		return m, nil
	}

	var res A1Result

	// Regime 1: headroom (DRAM 120% of footprint).
	pro, err := build(node.ModeProactive, 120)
	if err != nil {
		return A1Result{}, err
	}
	rea, err := build(node.ModeReactive, 120)
	if err != nil {
		return A1Result{}, err
	}
	samples := 0
	for t := 10 * time.Minute; t <= duration; t += 10 * time.Minute {
		if err := pro.Run(t); err != nil {
			return A1Result{}, err
		}
		if err := rea.Run(t); err != nil {
			return A1Result{}, err
		}
		res.ProactiveSavedBytesMean += savedBytes(pro)
		res.ReactiveSavedBytesMean += savedBytes(rea)
		samples++
	}
	res.ProactiveSavedBytesMean /= float64(samples)
	res.ReactiveSavedBytesMean /= float64(samples)

	// Regime 2: overcommit (DRAM 96% of footprint).
	rea2, err := build(node.ModeReactive, 96)
	if err != nil {
		return A1Result{}, err
	}
	if err := rea2.Run(duration); err != nil {
		return A1Result{}, err
	}
	res.ReactiveBursts, res.ReactiveStall = rea2.PressureEvents()
	res.ReactiveSavedLate = savedBytes(rea2)

	pro2, err := build(node.ModeProactive, 96)
	if err != nil {
		return A1Result{}, err
	}
	if err := pro2.Run(duration); err != nil {
		return A1Result{}, err
	}
	res.ProactiveEvictions = pro2.Evictions()
	return res, nil
}

func savedBytes(m *node.Machine) float64 {
	if p, ok := m.Tier().(*zswap.Pool); ok {
		return float64(p.SavedBytes())
	}
	return 0
}

// Render prints the comparison.
func (r A1Result) Render() string {
	rows := [][]string{
		{"headroom: proactive saved", fmt.Sprintf("%.1f MiB (continuous)", r.ProactiveSavedBytesMean/(1<<20))},
		{"headroom: reactive saved", fmt.Sprintf("%.1f MiB", r.ReactiveSavedBytesMean/(1<<20))},
		{"overcommit: reactive stalls", fmt.Sprintf("%v over %d bursts", r.ReactiveStall, r.ReactiveBursts)},
		{"overcommit: reactive saved", fmt.Sprintf("%.1f MiB (only at saturation)", r.ReactiveSavedLate/(1<<20))},
		{"overcommit: proactive evictions", fmt.Sprintf("%d (fail fast)", r.ProactiveEvictions)},
	}
	return "Proactive vs reactive zswap (§3.2)\n" + table([]string{"metric", "value"}, rows)
}
