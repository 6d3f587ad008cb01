// Package core implements the paper's primary contribution: the cold-page
// identification mechanism (§4) — a well-defined performance SLO for far
// memory, the promotion-rate math that connects it to per-job histograms,
// and the control algorithm that picks each job's cold-age threshold.
//
// The algorithm (§4.3):
//
//  1. Every control interval, compute the *best* cold-age threshold for
//     the interval just past: the smallest T whose promotion rate would
//     have stayed within the SLO.
//  2. Keep a pool of the per-interval best thresholds observed over the
//     last 24 hours (PoolSpan) and use their K-th percentile as the
//     threshold for the next interval — under steady state the SLO is
//     violated roughly (100-K)% of the time.
//  3. If the last interval's best threshold is higher than that
//     percentile (a sudden activity spike), use it instead.
//  4. zswap stays disabled for the first S seconds of a job's execution,
//     when there is no history to decide from.
//
// K and S are the tunables the ML autotuner (internal/tuner) optimizes.
package core

import (
	"fmt"
	"time"

	"sdfm/internal/histogram"
	"sdfm/internal/stats"
)

// SLO is the far-memory performance service-level objective (§4.2): the
// promotion rate must stay below TargetRatePerMin (a fraction of the
// job's working set size) per minute.
type SLO struct {
	// TargetRatePerMin is P in the paper: the maximum fraction of the
	// working set that may be promoted from far memory per minute.
	TargetRatePerMin float64
	// MinThreshold is the lowest cold-age threshold the system supports;
	// it also defines the working set (pages accessed within it).
	MinThreshold time.Duration
}

// DefaultSLO is the production setting: P = 0.2%/min with a 120 s minimum
// threshold, determined by months-long A/B testing at scale.
var DefaultSLO = SLO{
	TargetRatePerMin: 0.002,
	MinThreshold:     histogram.DefaultScanPeriod,
}

// Validate checks the SLO for internal consistency.
func (s SLO) Validate() error {
	if s.TargetRatePerMin <= 0 {
		return fmt.Errorf("core: non-positive target promotion rate %v", s.TargetRatePerMin)
	}
	if s.MinThreshold <= 0 {
		return fmt.Errorf("core: non-positive minimum threshold %v", s.MinThreshold)
	}
	return nil
}

// FleetRate is the one statistic judged against the SLO (§5.3, Fig. 7):
// the 98th percentile across jobs of each job's mean normalized promotion
// rate over the intervals zswap was enabled for it, one mean per job with
// any such interval in jobMeanRates; 0 without any.
func FleetRate(jobMeanRates []float64) float64 {
	if len(jobMeanRates) == 0 {
		return 0
	}
	return stats.Percentile(jobMeanRates, 98)
}

// Check judges a FleetRate against the target: ok when it is at most
// TargetRatePerMin, and excess, fleetRate/TargetRatePerMin − 1.
func (s SLO) Check(fleetRate float64) (ok bool, excess float64) {
	return fleetRate <= s.TargetRatePerMin, fleetRate/s.TargetRatePerMin - 1
}

// Params are the control-plane tunables the autotuner searches over.
type Params struct {
	// K is the percentile (0-100) of the best-threshold pool used as the
	// operating threshold. Higher K is more conservative.
	K float64
	// S is how long after job start zswap stays disabled.
	S time.Duration
}

// DefaultParams is the hand-tuned configuration from the paper's initial
// roll-out (stage A-B in Figure 5), chosen from a limited set of
// small-scale experiments before the autotuner existed.
var DefaultParams = Params{K: 98, S: 20 * time.Minute}

// Validate checks parameter ranges. K is tested for being inside the
// range, so a NaN, which compares false to everything, is refused.
func (p Params) Validate() error {
	if !(p.K >= 0 && p.K <= 100) {
		return fmt.Errorf("core: K percentile %v outside [0, 100]", p.K)
	}
	if p.S < 0 {
		return fmt.Errorf("core: negative warmup %v", p.S)
	}
	return nil
}

// MinBucket is the floor of the §4.3 rule under s on a cold-age grid of
// scanPeriod: the bucket of MinThreshold, and never bucket 0, since age-0
// pages are by definition not cold. The node's histograms run on
// histogram.DefaultScanPeriod; a trace's thresholds run on the trace's own
// scan period. A floor past a grid's last bucket leaves BestIndex only
// the last.
func (s SLO) MinBucket(scanPeriod time.Duration) int {
	return max(int(s.MinThreshold/scanPeriod), 1)
}

// BestThreshold returns the smallest cold-age bucket, from slo's floor,
// whose promotion rate over the past interval would have met the SLO:
// BestIndex over every bucket of promoInterval, the interval's promotions
// by page age-at-access on kstaled's scan-period grid. wssPages is the
// job's working set and intervalMinutes the interval length. If even the
// coldest bucket violates the SLO, histogram.MaxBucket is returned: the
// controller then effectively compresses only the very coldest tail.
func BestThreshold(promoInterval *histogram.Histogram, wssPages uint64, intervalMinutes float64, slo SLO) int {
	if intervalMinutes <= 0 {
		panic(fmt.Sprintf("core: non-positive interval %v", intervalMinutes))
	}
	tails := promoInterval.TailSums()
	return BestIndex(tails[:], slo.MinBucket(histogram.DefaultScanPeriod), wssPages, intervalMinutes, slo)
}

// BestIndex is the §4.3 best-threshold rule, shared by the node agent
// (BestThreshold) and the fast model. tails are one interval's promotion
// tail sums at ascending thresholds, so they never increase; the answer is
// the smallest index at or above from whose promotions per minute of the
// interval fit within slo.TargetRatePerMin × wssPages, or the last index
// when none does (or from is past it). As the rate never increases with the index, bisection
// finds it.
func BestIndex(tails []uint64, from int, wssPages uint64, intervalMinutes float64, slo SLO) int {
	limit := slo.TargetRatePerMin * float64(wssPages) // promotions/min allowed
	lo, hi := from, len(tails)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if float64(tails[m])/intervalMinutes <= limit {
			hi = m
		} else {
			lo = m + 1
		}
	}
	return min(lo, len(tails)-1)
}

// WorkingSetPages derives the working set from a cold-age census: the
// pages accessed within the minimum cold-age threshold (§4.2).
func WorkingSetPages(coldCensus *histogram.Histogram, slo SLO) uint64 {
	cold := coldCensus.ColdAtThreshold(slo.MinThreshold)
	total := coldCensus.Total()
	if cold > total {
		return 0
	}
	return total - cold
}

// PoolSpan is how long the best-threshold pool remembers: an observation
// leaves the pool once it is PoolSpan older than the newest one, whatever
// the cadence — the node agent's 120 s scans and the fast model's trace
// intervals share one day of history.
const PoolSpan = 24 * time.Hour

// Controller runs the §4.3 threshold-control algorithm for one job. The
// zero value is not usable; construct with NewController.
type Controller struct {
	params Params
	kFrac  float64 // params.K / 100

	// pool is a ring of the observations in (last − PoolSpan, last],
	// oldest at head; its length is a power of two, doubled when full.
	pool    []observation
	head, n int
	// poolCounts[b] is the number of pool entries equal to b. kth is the
	// pool's K-th percentile bucket and atOrBelow the number of entries at
	// or below it; every change to the pool or K moves kth by the few
	// buckets it shifted (settle), instead of Threshold walking the counts
	// from 0 or sorting the pool.
	poolCounts [histogram.NumBuckets]uint32
	kth        int
	atOrBelow  int
	lastBest   int
	started    time.Duration // job start time
}

// observation is one pool entry: an interval's best threshold and the
// time it was observed.
type observation struct {
	at     time.Duration
	bucket uint8
}

// ControllerConfig configures a Controller.
type ControllerConfig struct {
	Params Params
	// JobStart is the simulated time the job began executing; the
	// controller disables zswap until JobStart+Params.S.
	JobStart time.Duration
}

// NewController creates a controller for one job.
func NewController(cfg ControllerConfig) (*Controller, error) {
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}
	return &Controller{
		params:   cfg.Params,
		kFrac:    cfg.Params.K / 100,
		started:  cfg.JobStart,
		lastBest: histogram.MaxBucket,
	}, nil
}

// Params returns the current tunables.
func (c *Controller) Params() Params { return c.params }

// Reset restarts the controller for a job that began at jobStart: the
// pool, the last best threshold and the observation state are cleared, so
// it behaves as a NewController with the same parameters. The pool's
// storage is kept; nothing is allocated.
func (c *Controller) Reset(jobStart time.Duration) {
	if c.n > 0 {
		c.poolCounts = [histogram.NumBuckets]uint32{}
	}
	c.head, c.n = 0, 0
	c.kth, c.atOrBelow = 0, 0
	c.lastBest = histogram.MaxBucket
	c.started = jobStart
}

// SetParams swaps tunables in place (a parameter deployment); history is
// preserved, matching a production config push that does not restart jobs.
func (c *Controller) SetParams(p Params) error {
	if err := p.Validate(); err != nil {
		return err
	}
	c.params, c.kFrac = p, p.K/100
	c.settle()
	return nil
}

// Observe records the best threshold computed for the interval that ended
// at now, after evicting every observation at or before now − PoolSpan.
// Times must not decrease between Resets; observations at equal times
// each count.
func (c *Controller) Observe(now time.Duration, bestBucket int) {
	if bestBucket < 0 || bestBucket > histogram.MaxBucket {
		panic(fmt.Sprintf("core: best bucket %d out of range", bestBucket))
	}
	mask := len(c.pool) - 1
	for c.n > 0 && c.pool[c.head].at <= now-PoolSpan {
		b := int(c.pool[c.head].bucket)
		c.poolCounts[b]--
		if b <= c.kth {
			c.atOrBelow--
		}
		c.head = (c.head + 1) & mask
		c.n--
	}
	if c.n == len(c.pool) {
		grown := make([]observation, max(2*len(c.pool), 64))
		copy(grown[copy(grown, c.pool[c.head:]):], c.pool[:c.head])
		c.pool, c.head, mask = grown, 0, len(grown)-1
	}
	c.pool[(c.head+c.n)&mask] = observation{at: now, bucket: uint8(bestBucket)}
	c.n++
	c.poolCounts[bestBucket]++
	if bestBucket <= c.kth {
		c.atOrBelow++
	}
	c.lastBest = bestBucket
	c.settle()
}

// settle moves kth to the pool's K-th percentile bucket: the nearest-rank
// percentile, the value at index rank of the sorted pool, is the lowest
// bucket with more than rank entries at or below it. A non-empty pool
// holds n > rank entries at or below MaxBucket, so the upward walk ends
// there.
func (c *Controller) settle() {
	if c.n == 0 {
		return
	}
	rank := int(c.kFrac * float64(c.n-1))
	for c.atOrBelow <= rank {
		c.kth++
		c.atOrBelow += int(c.poolCounts[c.kth])
	}
	for c.kth > 0 && c.atOrBelow-int(c.poolCounts[c.kth]) > rank {
		c.atOrBelow -= int(c.poolCounts[c.kth])
		c.kth--
	}
}

// Enabled reports whether zswap is active for this job at time now
// (disabled during the first S seconds of execution, §4.3).
func (c *Controller) Enabled(now time.Duration) bool {
	return now >= c.started+c.params.S
}

// Threshold returns the cold-age bucket to use for the next interval:
// max(K-th percentile of the pool, last interval's best). Before any
// observation it returns histogram.MaxBucket (compress nothing).
func (c *Controller) Threshold() int {
	if c.n == 0 {
		return histogram.MaxBucket
	}
	return max(c.kth, c.lastBest)
}

// ThresholdDuration converts the current threshold bucket to an age
// duration given the histogram scan period.
func (c *Controller) ThresholdDuration(scanPeriod time.Duration) time.Duration {
	return time.Duration(c.Threshold()) * scanPeriod
}

// PoolLen reports how many observations the pool currently holds.
func (c *Controller) PoolLen() int { return c.n }
