// Package fleet synthesizes warehouse-scale far-memory telemetry.
//
// The paper's fleet-level analyses (Figures 1–3, 5–7) are computed from
// per-job 5-minute telemetry aggregates collected across hundreds of
// thousands of machines. This package generates statistically equivalent
// traces at configurable scale: each job draws an archetype (the same
// band mixtures the page-level simulator uses), and its cold-age and
// promotion tail sums are synthesized from the renewal-process
// steady-state of that mixture — P(age ≥ T) = e^(-T/P) for a page with
// mean reaccess period P — modulated by diurnal load, job churn, periodic
// dataset scans, and sampling noise.
//
// The page-accurate simulator (internal/node) and this generator share
// the same archetype definitions, so machine-level and fleet-level
// results describe the same synthetic fleet at two fidelities.
package fleet

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"sdfm/internal/obs"
	"sdfm/internal/pagedata"
	"sdfm/internal/simtime"
	"sdfm/internal/telemetry"
	"sdfm/internal/workload"
)

// Config sizes the synthetic fleet.
type Config struct {
	Clusters           int
	MachinesPerCluster int
	JobsPerMachine     int
	// Duration of the trace.
	Duration time.Duration
	// Interval is the aggregation interval (default 5 min).
	Interval time.Duration
	Seed     int64
	// Weights maps archetype name to sampling weight; nil uses
	// DefaultWeights.
	Weights map[string]float64
	// ChurnFraction of job slots run short-lived instances (default 0.3),
	// giving the autotuner's S parameter something to protect against.
	ChurnFraction float64
	// Obs, when set, counts emitted entries and job instances as the
	// trace streams out. Observation-only; nil disables it.
	Obs *obs.Observer
}

// DefaultWeights is the fleet archetype blend, chosen so the aggregate
// cold-memory curve lands near the paper's characterization (§2.2).
var DefaultWeights = map[string]float64{
	"web-frontend":    0.25,
	"bigtable":        0.15,
	"batch-analytics": 0.15,
	"ml-training":     0.20,
	"kv-cache":        0.125,
	"log-processor":   0.125,
}

func (c *Config) fillDefaults() {
	if c.Clusters == 0 {
		c.Clusters = 1
	}
	if c.MachinesPerCluster == 0 {
		c.MachinesPerCluster = 10
	}
	if c.JobsPerMachine == 0 {
		c.JobsPerMachine = 8
	}
	if c.Duration == 0 {
		c.Duration = 24 * time.Hour
	}
	if c.Interval == 0 {
		c.Interval = telemetry.DefaultAggregation
	}
	if c.Weights == nil {
		c.Weights = DefaultWeights
	}
	if c.ChurnFraction == 0 {
		c.ChurnFraction = 0.3
	}
}

const (
	// clusterTilt is the lognormal scale that perturbs archetype weights
	// per cluster, producing the inter-cluster differences of Figure 2.
	clusterTilt = 0.5
	// noiseColdSigma and noisePromoSigma are the lognormal noise scales on
	// each entry's cold and promotion tails.
	noiseColdSigma  = 0.05
	noisePromoSigma = 0.20
)

// pageGroup is a bucket of pages sharing a representative reaccess period.
type pageGroup struct {
	pages  float64
	period float64 // seconds
}

// jobInstance is one run of a job slot.
type jobInstance struct {
	key    telemetry.JobKey
	arch   *workload.Archetype
	pages  int
	groups []pageGroup
	phase  float64 // diurnal phase offset
	start  time.Duration
	end    time.Duration
	rng    *rand.Rand
}

// numGroups is the per-job period quantization.
const numGroups = 48

// Generate builds a telemetry trace for the configured fleet.
func Generate(cfg Config) (*telemetry.Trace, error) {
	trace := telemetry.NewTrace()
	if err := GenerateTo(cfg, trace); err != nil {
		return nil, err
	}
	return trace, nil
}

// GenerateTo streams the configured fleet's telemetry into sink interval
// by interval — the out-of-core generation path. With a tracestore.Writer
// as the sink, a warehouse-scale trace goes straight to disk chunk by
// chunk and is never materialized as a []Entry. Entries carry the default
// trace metadata (telemetry.NewTrace's scan period and threshold set).
func GenerateTo(cfg Config, sink telemetry.EntrySink) error {
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
	var emitted *obs.Counter
	if cfg.Obs != nil {
		emitted = cfg.Obs.Counter("sdfm_fleet_entries_total", "Telemetry entries emitted into the trace.")
		n := 0
		for _, chain := range instances {
			n += len(chain)
		}
		cfg.Obs.Gauge("sdfm_fleet_job_instances", "Job instances in the generated fleet.").SetInt(n)
	}
	// Active-window sweep. Instances within a slot are a contiguous,
	// non-overlapping chain sorted by start time, so a monotonic cursor
	// per slot finds the (at most one) live instance in amortized O(1)
	// instead of testing every dead instance at every interval. Slots are
	// visited in build order and contribute at most one entry each, so
	// emission order is identical to the full filtered walk.
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
			if err := sink.Append(inst.entry(t, thresholdsSec, intervalMin)); err != nil {
				return err
			}
			emitted.Inc()
		}
	}
	return nil
}

// buildInstances returns one chain of instances per job slot. Within a
// slot the chain is time-ordered and non-overlapping (each instance
// starts where its predecessor ended), which GenerateTo's sweep relies
// on; flattening the chains in slot order reproduces the historical
// flat instance list.
func buildInstances(cfg Config, rng *rand.Rand) [][]*jobInstance {
	var instances [][]*jobInstance
	for c := 0; c < cfg.Clusters; c++ {
		cluster := fmt.Sprintf("cluster-%02d", c)
		weights := tiltedWeights(cfg, c)
		for m := 0; m < cfg.MachinesPerCluster; m++ {
			machine := fmt.Sprintf("m%04d", m)
			for j := 0; j < cfg.JobsPerMachine; j++ {
				arch := sampleArchetype(weights, rng)
				slotRng := simtime.Rand(cfg.Seed, fmt.Sprintf("job/%s/%s/%d", cluster, machine, j))
				churny := slotRng.Float64() < cfg.ChurnFraction
				// A slot yields one long-running instance, or a chain of
				// short-lived ones for churny slots.
				var chain []*jobInstance
				start := time.Duration(0)
				idx := 0
				for start < cfg.Duration {
					var life time.Duration
					if churny {
						life = time.Duration((1 + slotRng.Float64()*7) * float64(time.Hour))
					} else {
						life = cfg.Duration
					}
					end := start + life
					if end > cfg.Duration {
						end = cfg.Duration
					}
					inst := newInstance(telemetry.JobKey{
						Cluster: cluster,
						Machine: machine,
						Job:     fmt.Sprintf("%s-%d-%d", arch.Name, j, idx),
					}, arch, slotRng)
					inst.start = start
					inst.end = end
					chain = append(chain, inst)
					start = end
					idx++
				}
				instances = append(instances, chain)
			}
		}
	}
	return instances
}

func tiltedWeights(cfg Config, clusterIdx int) map[string]float64 {
	rng := simtime.Rand(cfg.Seed, fmt.Sprintf("cluster-tilt/%d", clusterIdx))
	out := make(map[string]float64, len(cfg.Weights))
	// Iterate in the stable archetype order: ranging over the map would
	// consume rng draws in a nondeterministic order.
	for _, a := range workload.Archetypes {
		if w, ok := cfg.Weights[a.Name]; ok {
			out[a.Name] = w * math.Exp(clusterTilt*rng.NormFloat64())
		}
	}
	return out
}

func sampleArchetype(weights map[string]float64, rng *rand.Rand) *workload.Archetype {
	total := 0.0
	for _, a := range workload.Archetypes {
		total += weights[a.Name]
	}
	u := rng.Float64() * total
	for _, a := range workload.Archetypes {
		u -= weights[a.Name]
		if u < 0 {
			return a
		}
	}
	return workload.Archetypes[len(workload.Archetypes)-1]
}

// newInstance quantizes the archetype's band mixture into page groups.
func newInstance(key telemetry.JobKey, arch *workload.Archetype, rng *rand.Rand) *jobInstance {
	pages := arch.PagesMin
	if arch.PagesMax > arch.PagesMin {
		pages += rng.Intn(arch.PagesMax - arch.PagesMin)
	}
	total := 0.0
	for _, b := range arch.Bands {
		total += b.Weight
	}
	groups := make([]pageGroup, 0, numGroups)
	for g := 0; g < numGroups; g++ {
		// Invert the mixture CDF at quantile u.
		u := (float64(g) + 0.5) / numGroups * total
		var band workload.Band
		frac := 0.0
		for _, b := range arch.Bands {
			if u < b.Weight {
				band = b
				frac = u / b.Weight
				break
			}
			u -= b.Weight
		}
		if band.Weight == 0 {
			band = arch.Bands[len(arch.Bands)-1]
			frac = 1
		}
		lo := math.Log(band.MinPeriod.Seconds())
		hi := math.Log(band.MaxPeriod.Seconds())
		period := arch.EffectivePeriod(math.Exp(lo + frac*(hi-lo)))
		if arch.ScanEvery > 0 {
			// At trace granularity a periodic full sweep is a continuous
			// touch process: blend it in like a background rate.
			period = 1 / (1/period + 1/arch.ScanEvery.Seconds())
		}
		groups = append(groups, pageGroup{
			pages:  float64(pages) / numGroups,
			period: period,
		})
	}
	return &jobInstance{
		key:    key,
		arch:   arch,
		pages:  pages,
		groups: groups,
		phase:  rng.Float64() * 2 * math.Pi,
		rng:    rng,
	}
}

// entry synthesizes one telemetry entry at time t.
func (inst *jobInstance) entry(t time.Duration, thresholdsSec []float64, intervalMin float64) telemetry.Entry {
	f := 1.0
	if inst.arch.DiurnalAmplitude > 0 {
		f = 1 + inst.arch.DiurnalAmplitude*math.Sin(2*math.Pi*float64(t)/float64(24*time.Hour)+inst.phase)
	}
	// Ages are capped by the job's age (a young instance cannot hold
	// pages older than itself).
	ageCapSec := (t - inst.start).Seconds()

	coldNoise := math.Exp(noiseColdSigma * inst.rng.NormFloat64())
	promoNoise := math.Exp(noisePromoSigma * inst.rng.NormFloat64())

	n := len(thresholdsSec)
	cold := make([]uint64, n)
	promo := make([]uint64, n)
	var wssF float64
	for _, g := range inst.groups {
		rate := f / g.period // accesses per second per page
		wssF += g.pages * (1 - math.Exp(-120*rate))
	}
	intervalSec := intervalMin * 60
	for i, T := range thresholdsSec {
		var c, p float64
		if T <= ageCapSec {
			for _, g := range inst.groups {
				rate := f / g.period
				idle := math.Exp(-T * rate)
				c += g.pages * idle
				p += g.pages * rate * idle * intervalSec
			}
		}
		c *= coldNoise
		if c > float64(inst.pages) {
			c = float64(inst.pages)
		}
		p *= promoNoise
		cold[i] = uint64(c)
		promo[i] = uint64(p)
	}
	wss := uint64(wssF)
	if wss == 0 {
		wss = 1
	}
	return telemetry.Entry{
		Key:              inst.key,
		TimestampSec:     int64(t / time.Second),
		IntervalMinutes:  intervalMin,
		WSSPages:         wss,
		TotalPages:       uint64(inst.pages),
		ColdTails:        cold,
		PromoTails:       promo,
		CompressibleFrac: 1 - inst.arch.Mix.Weight(pagedata.ClassRandom),
	}
}

// ColdCurvePoint is one point of the Figure 1 curve.
type ColdCurvePoint struct {
	ThresholdSeconds float64
	// ColdFraction is fleet cold bytes at the threshold over fleet total.
	ColdFraction float64
	// PromotionsPerMinPerColdByte is the rate of accesses to cold pages
	// divided by cold pages: the fraction of cold memory touched per
	// minute (the paper reports ~15%/min at T = 120 s).
	PromotionsPerMinPerColdByte float64
}

// ColdCurve aggregates a trace into the Figure 1 curve: fleet-average
// cold fraction and cold-memory access rate as functions of the cold-age
// threshold.
func ColdCurve(trace *telemetry.Trace) []ColdCurvePoint {
	n := len(trace.Thresholds)
	coldSum := make([]float64, n)
	promoSum := make([]float64, n)
	var totalPages, minutes float64
	for _, e := range trace.Entries {
		for i := 0; i < n; i++ {
			coldSum[i] += float64(e.ColdTails[i])
			promoSum[i] += float64(e.PromoTails[i]) / e.IntervalMinutes
		}
		totalPages += float64(e.TotalPages)
		minutes++
	}
	out := make([]ColdCurvePoint, n)
	scanSec := float64(trace.ScanPeriodSeconds)
	for i := 0; i < n; i++ {
		p := ColdCurvePoint{ThresholdSeconds: float64(trace.Thresholds[i]) * scanSec}
		if totalPages > 0 {
			p.ColdFraction = coldSum[i] / totalPages
		}
		if coldSum[i] > 0 {
			p.PromotionsPerMinPerColdByte = promoSum[i] / coldSum[i]
		}
		out[i] = p
	}
	return out
}

// MachineKey identifies a machine in the fleet.
type MachineKey struct {
	Cluster string
	Machine string
}

// MachineColdFractions returns, per machine, the time-averaged fraction
// of its memory that is cold at the minimum threshold (Figure 2's
// per-machine statistic).
func MachineColdFractions(trace *telemetry.Trace) map[MachineKey]float64 {
	type acc struct{ cold, total float64 }
	sums := make(map[MachineKey]*acc)
	for _, e := range trace.Entries {
		k := MachineKey{Cluster: e.Key.Cluster, Machine: e.Key.Machine}
		a, ok := sums[k]
		if !ok {
			a = &acc{}
			sums[k] = a
		}
		a.cold += float64(e.ColdTails[0])
		a.total += float64(e.TotalPages)
	}
	out := make(map[MachineKey]float64, len(sums))
	for k, a := range sums {
		if a.total > 0 {
			out[k] = a.cold / a.total
		}
	}
	return out
}

// JobColdFractions returns each job's time-averaged cold fraction
// (Figure 3's per-job statistic).
func JobColdFractions(trace *telemetry.Trace) map[telemetry.JobKey]float64 {
	type acc struct{ cold, total float64 }
	sums := make(map[telemetry.JobKey]*acc)
	for _, e := range trace.Entries {
		a, ok := sums[e.Key]
		if !ok {
			a = &acc{}
			sums[e.Key] = a
		}
		a.cold += float64(e.ColdTails[0])
		a.total += float64(e.TotalPages)
	}
	out := make(map[telemetry.JobKey]float64, len(sums))
	for k, a := range sums {
		if a.total > 0 {
			out[k] = a.cold / a.total
		}
	}
	return out
}
