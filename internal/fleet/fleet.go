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
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
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

// validate rejects what no fleet can be: a negative size or interval, or
// a churn fraction that is not a share. Zero values are left to
// fillDefaults.
func (c *Config) validate() error {
	if c.Clusters < 0 || c.MachinesPerCluster < 0 || c.JobsPerMachine < 0 {
		return fmt.Errorf("fleet: negative fleet size: %d clusters x %d machines x %d jobs",
			c.Clusters, c.MachinesPerCluster, c.JobsPerMachine)
	}
	if c.Interval < 0 {
		return fmt.Errorf("fleet: negative interval %v", c.Interval)
	}
	if !(c.ChurnFraction >= 0 && c.ChurnFraction <= 1) {
		return fmt.Errorf("fleet: churn fraction %v outside [0, 1]", c.ChurnFraction)
	}
	return nil
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
//
// Entries are computed on GOMAXPROCS goroutines, a block of intervals at
// a time, and appended in (time, slot) order by the caller once every
// worker of the block has returned, so the sink sees the same entries in
// the same order on any number of cores.
func GenerateTo(cfg Config, sink telemetry.EntrySink) error {
	return generateTo(cfg, sink, blockEntries, runtime.GOMAXPROCS(0), tailMargin)
}

// blockEntries is the entry budget of one generation block: it sizes the
// buffer the workers fill and the caller drains into the sink, large
// enough that starting the workers is a small share of a block's work.
const blockEntries = 4096

// generateTo is GenerateTo with the block budget, worker count and tail
// margin (see tailMargin) as parameters.
func generateTo(cfg Config, sink telemetry.EntrySink, budget, workers int, margin float64) error {
	if err := cfg.validate(); err != nil {
		return err
	}
	cfg.fillDefaults()
	if cfg.Duration < cfg.Interval {
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

	var emitted, fallbacks *obs.Counter
	if cfg.Obs != nil {
		emitted = cfg.Obs.Counter("sdfm_fleet_entries_total", "Telemetry entries emitted into the trace.")
		fallbacks = cfg.Obs.Counter("sdfm_fleet_exact_fallbacks_total",
			"Entries whose fast tail sums lay within the margin of an integer and were recomputed with one exp per term.")
		n := 0
		for _, chain := range instances {
			n += len(chain)
		}
		cfg.Obs.Gauge("sdfm_fleet_job_instances", "Job instances in the generated fleet.").SetInt(n)
	}
	slots := len(instances)
	block := max(1, budget/slots)
	sw := &sweep{
		instances:     instances,
		cursors:       make([]int, slots),
		entries:       make([]telemetry.Entry, block*slots),
		tailLen:       2 * len(thresholdsSec),
		interval:      cfg.Interval,
		chain:         newTailChain(meta.Thresholds),
		thresholdsSec: thresholdsSec,
		intervalMin:   cfg.Interval.Minutes(),
		margin:        margin,
	}
	steps := int(cfg.Duration / cfg.Interval)
	for k := 0; k < steps; k += block {
		n := min(block, steps-k)
		// One allocation holds the block's tails: the sink keeps
		// entries, so each block needs fresh ones.
		sw.tails = make([]uint64, n*slots*sw.tailLen)
		sw.fill(k, n, workers)
		fallbacks.Add(float64(sw.fallbacks.Swap(0)))
		for _, e := range sw.entries[:n*slots] {
			if err := sink.Append(e); err != nil {
				return err
			}
			emitted.Inc()
		}
	}
	return nil
}

// sweep is the state of GenerateTo's active-window sweep. A slot's chain
// tiles (0, Duration] without gaps, so exactly one of its instances is
// live at every interval, and a monotonic cursor per slot finds it in
// amortized O(1). A slot's entries draw only from its own stream, so
// slots are independent and each is filled in time order by one worker;
// the block buffer is indexed (interval, slot), which is the emission
// order.
type sweep struct {
	instances     [][]*jobInstance
	cursors       []int
	entries       []telemetry.Entry
	tails         []uint64 // the block's entries' tails, tailLen each
	tailLen       int
	interval      time.Duration
	chain         tailChain
	thresholdsSec []float64
	intervalMin   float64
	margin        float64
	fallbacks     atomic.Int64 // entries that took exactEntry since the last block
}

// fill computes the n intervals from step k into the block buffer, on up
// to workers goroutines (the caller is one), and returns once all are
// done.
func (sw *sweep) fill(k, n, workers int) {
	slots := len(sw.instances)
	if workers = min(workers, slots); workers <= 1 {
		for s := range slots {
			sw.fillSlot(s, k, n)
		}
		return
	}
	var next atomic.Int64
	work := func() {
		for s := int(next.Add(1)) - 1; s < slots; s = int(next.Add(1)) - 1 {
			sw.fillSlot(s, k, n)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}

// fillSlot computes slot s's entries for the n intervals from step k.
func (sw *sweep) fillSlot(s, k, n int) {
	chain := sw.instances[s]
	slots := len(sw.instances)
	i := sw.cursors[s]
	fallbacks := 0
	for j := range n {
		t := time.Duration(k+j+1) * sw.interval
		for t > chain[i].end {
			i++
		}
		at := j*slots + s
		inst := chain[i]
		e, exact := inst.entry(t, inst.draw(t), &sw.chain, sw.thresholdsSec, sw.intervalMin, sw.margin, sw.tails[at*sw.tailLen:(at+1)*sw.tailLen])
		sw.entries[at] = e
		if exact {
			fallbacks++
		}
	}
	sw.cursors[s] = i
	sw.fallbacks.Add(int64(fallbacks))
}

// buildInstances returns one chain of instances per job slot. Within a
// slot the chain is time-ordered and tiles the trace (the first instance
// starts at 0, each later one where its predecessor ended, the last ends
// at Duration), which GenerateTo's sweep relies on; flattening the chains
// in slot order reproduces the historical flat instance list.
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

// draw is what an entry takes from its instance's clock and stream
// before any tail is summed: the diurnal rate factor, the age cap and the
// two noise factors. Both tail paths below use one draw, so falling back
// to the exact path draws nothing twice.
type draw struct {
	f          float64
	ageCapSec  float64
	coldNoise  float64
	promoNoise float64
}

// draw takes entry t's diurnal factor, age cap and noise draws.
func (inst *jobInstance) draw(t time.Duration) draw {
	f := 1.0
	if inst.arch.DiurnalAmplitude > 0 {
		f = 1 + inst.arch.DiurnalAmplitude*math.Sin(2*math.Pi*float64(t)/float64(24*time.Hour)+inst.phase)
	}
	// Ages are capped by the job's age (a young instance cannot hold
	// pages older than itself).
	ageCapSec := (t - inst.start).Seconds()

	coldNoise := math.Exp(noiseColdSigma * inst.rng.NormFloat64())
	promoNoise := math.Exp(noisePromoSigma * inst.rng.NormFloat64())
	return draw{f: f, ageCapSec: ageCapSec, coldNoise: coldNoise, promoNoise: promoNoise}
}

// exactSums is the definition of every value GenerateTo emits: the WSS
// sum, and per threshold the cold and promotion tail sums before noise,
// with one math.Exp per (threshold, group) term. A threshold past the
// instance's age sums to zero. cs and ps take one sum per threshold.
func (inst *jobInstance) exactSums(d draw, thresholdsSec []float64, intervalSec float64, cs, ps []float64) (wssF float64) {
	for _, g := range inst.groups {
		rate := d.f / g.period // accesses per second per page
		wssF += g.pages * (1 - math.Exp(-120*rate))
	}
	for i, T := range thresholdsSec {
		var c, p float64
		if T <= d.ageCapSec {
			for _, g := range inst.groups {
				rate := d.f / g.period
				idle := math.Exp(-T * rate)
				c += g.pages * idle
				p += g.pages * rate * idle * intervalSec
			}
		}
		cs[i], ps[i] = c, p
	}
	return wssF
}

// exactEntry synthesizes the entry of draw d at time t from exactSums.
// Its cold and promotion tails are the two halves of tails, which holds
// 2×len(thresholdsSec) values and is the entry's own.
func (inst *jobInstance) exactEntry(t time.Duration, d draw, thresholdsSec []float64, intervalMin float64, tails []uint64) telemetry.Entry {
	n := len(thresholdsSec)
	var c, p [maxThresholds]float64
	wssF := inst.exactSums(d, thresholdsSec, intervalMin*60, c[:n], p[:n])
	cold, promo := tails[:n:n], tails[n:2*n:2*n]
	for i := range n {
		cv := c[i] * d.coldNoise
		if cv > float64(inst.pages) {
			cv = float64(inst.pages)
		}
		cold[i] = uint64(cv)
		promo[i] = uint64(p[i] * d.promoNoise)
	}
	return inst.newEntry(t, intervalMin, wssF, cold, promo)
}

// The fast tails, and how far they can stray from exactSums.
//
// Threshold b scan periods is T = 120·b s, so a group's idle share
// e^(-T·rate) is e1^b with e1 = e^(-120·rate), the term exactSums' WSS
// sum already computes. fastSums spends that one math.Exp per group and
// reaches each e1^b by tailChain's products, which rest on b copies of e1
// and b−1 multiplications. With u = 2^-53 and math.Exp within 1 ulp
// (relative error E ≤ 2u), one term's fast and exact values differ,
// relatively, by at most
//
//	(b+1)·E      math.Exp's error: b copies of it in e1^b, one in Exp(-T·rate)
//	+ (b−1)·u    the chain's roundings
//	+ 2·x·u      the rounded arguments 120·rate and T·rate, with x = T·rate
//	+ 6·u        pages·rate·interval·idle multiplied in another order
//
// A group stops its thresholds at the first whose two terms are both
// below negligibleTerm; every later term is smaller still, since idle
// falls as T grows. A kept term is at least negligibleTerm, so
// x ≤ ln(s/negligibleTerm) for its scale s (pages per group, or that
// times rate·interval): x ≤ 70 for any s below 10^12. With b ≤ 255 a
// term then strays by at most (512 + 254 + 140 + 6)·u = 912u. All terms
// are positive and both paths add them in the same group order, so a
// sum strays by that share of itself plus twice the 47u of summing 48
// terms, and the noise factor adds a rounding to each side: 1008u,
// about 1.1e-13 of the value. The dropped terms add at most
// 2·48·negligibleTerm·noise, below 1e-15 for any noise factor below 10.
//
// tailMargin is 1e-9 relative and 1e-9 absolute, over 1,000 times both
// (TestFastTailHeadroom measures the largest gap seen against
// tailMargin/1000). A fast value v gives floor(v) only when floor takes
// one value on all of [v·(1−m)−m, v·(1+m)+m], an interval that holds the
// exact value; any other tail sends the whole entry to exactEntry. On
// the cp_rounds fleet (138,240 entries) about one entry in 10^4 does.
const (
	tailMargin     = 1e-9
	negligibleTerm = 1e-18
)

// maxThresholds bounds the threshold set an entry's scratch sums hold.
const maxThresholds = 32

// chainStep is one product of tailChain: the k-th step sets
// pw[k+2] = pw[a]·pw[b], where pw[0] = 1 and pw[1] = e1 and every pw[j]
// is a power of e1. A step whose power is threshold i's has tail i, a
// helper power tail −1.
type chainStep struct {
	a, b uint8
	tail int8
}

// tailChain is an addition chain over the thresholds (in scan periods):
// the steps reach every threshold's power of e1 in threshold order, and
// stepOf[i] is the step that reaches threshold i.
type tailChain struct {
	steps  []chainStep
	stepOf []int
}

// newTailChain builds the chain for thresholds, which are positive and
// strictly increasing. Each threshold's power is the product of the
// largest known power whose complement is known too; when none is, the
// complement to the largest known power below it is reached first as a
// helper. For the default thresholds that is 27 products: one per
// threshold (the first multiplies e1 by 1) and six helpers.
func newTailChain(thresholds []int) tailChain {
	if len(thresholds) > maxThresholds {
		panic(fmt.Sprintf("fleet: %d thresholds, at most %d", len(thresholds), maxThresholds))
	}
	exps := []int{0, 1} // exps[j] is pw[j]'s power of e1
	var ch tailChain
	var reach func(e, tail int)
	reach = func(e, tail int) {
		a, b := -1, -1
		for j, v := range exps {
			if v <= e && (a < 0 || v > exps[a]) {
				if k := slices.Index(exps, e-v); k >= 0 {
					a, b = j, k
				}
			}
		}
		if a < 0 {
			below := 0
			for j, v := range exps {
				if v < e && v > exps[below] {
					below = j
				}
			}
			reach(e-exps[below], -1)
			a, b = below, len(exps)-1
		}
		if len(exps) > 255 {
			panic("fleet: threshold chain too long")
		}
		ch.steps = append(ch.steps, chainStep{a: uint8(a), b: uint8(b), tail: int8(tail)})
		exps = append(exps, e)
	}
	for i, e := range thresholds {
		if e < 1 || (i > 0 && e <= thresholds[i-1]) {
			panic(fmt.Sprintf("fleet: thresholds %v are not positive and increasing", thresholds))
		}
		reach(e, i)
		ch.stepOf = append(ch.stepOf, len(ch.steps)-1)
	}
	return ch
}

// fastSums is exactSums for the first live thresholds, from one
// math.Exp per group: it returns the same WSS sum bit for bit and tail
// sums within the bound above. c and p hold one zeroed value per live
// threshold.
func (inst *jobInstance) fastSums(d draw, ch *tailChain, live int, intervalSec float64, c, p []float64) (wssF float64) {
	var steps []chainStep
	if live > 0 {
		steps = ch.steps[:ch.stepOf[live-1]+1]
	}
	var pw [256]float64
	pw[0] = 1
	for _, g := range inst.groups {
		rate := d.f / g.period
		e1 := math.Exp(-120 * rate)
		wssF += g.pages * (1 - e1)
		pg, pr := g.pages, g.pages*rate*intervalSec
		pw[1] = e1
		for k, s := range steps {
			v := pw[s.a] * pw[s.b]
			pw[uint8(k+2)] = v
			if s.tail < 0 {
				continue
			}
			tc, tp := pg*v, pr*v
			c[s.tail] += tc
			p[s.tail] += tp
			if tc < negligibleTerm && tp < negligibleTerm {
				break
			}
		}
	}
	return wssF
}

// floorWithin returns floor(v) and whether floor takes that one value
// over v's margin [v·(1−m)−m, v·(1+m)+m]. Tail values are never
// negative, so the interval's low end is clipped at zero.
func floorWithin(v, m float64) (uint64, bool) {
	lo := math.Floor(max(v-m*v-m, 0))
	hi := math.Floor(v + m*v + m)
	return uint64(hi), lo == hi
}

// entry synthesizes the entry of draw d at time t from the fast sums,
// or, when a tail lies within margin of an integer, from exactEntry; the
// second result reports the fallback. Either way the entry equals
// exactEntry's. Its cold and promotion tails are the two halves of
// tails, which holds 2×len(thresholdsSec) values and is the entry's own.
func (inst *jobInstance) entry(t time.Duration, d draw, ch *tailChain, thresholdsSec []float64, intervalMin, margin float64, tails []uint64) (telemetry.Entry, bool) {
	n := len(thresholdsSec)
	live := 0
	for live < n && thresholdsSec[live] <= d.ageCapSec {
		live++
	}
	var c, p [maxThresholds]float64
	wssF := inst.fastSums(d, ch, live, intervalMin*60, c[:live], p[:live])
	cold, promo := tails[:n:n], tails[n:2*n:2*n]
	for i := range live {
		cv, okc := floorWithin(c[i]*d.coldNoise, margin)
		pv, okp := floorWithin(p[i]*d.promoNoise, margin)
		if !okc || !okp {
			return inst.exactEntry(t, d, thresholdsSec, intervalMin, tails), true
		}
		// exactEntry clamps the cold value to pages before truncating;
		// pages is an integer, so clamping the floor gives the same.
		cold[i] = min(cv, uint64(inst.pages))
		promo[i] = pv
	}
	clear(cold[live:])
	clear(promo[live:])
	return inst.newEntry(t, intervalMin, wssF, cold, promo), false
}

// newEntry assembles an entry from its sums and tails.
func (inst *jobInstance) newEntry(t time.Duration, intervalMin, wssF float64, cold, promo []uint64) telemetry.Entry {
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
