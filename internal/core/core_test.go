package core

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"sdfm/internal/histogram"
)

func promoHist(counts map[int]uint64) *histogram.Histogram {
	h := histogram.New(histogram.DefaultScanPeriod)
	for b, n := range counts {
		h.Add(b, n)
	}
	return h
}

func TestSLOValidate(t *testing.T) {
	if err := DefaultSLO.Validate(); err != nil {
		t.Fatalf("DefaultSLO invalid: %v", err)
	}
	if (SLO{TargetRatePerMin: 0, MinThreshold: time.Minute}).Validate() == nil {
		t.Error("zero target accepted")
	}
	if (SLO{TargetRatePerMin: 0.01, MinThreshold: 0}).Validate() == nil {
		t.Error("zero min threshold accepted")
	}
}

func TestParamsValidate(t *testing.T) {
	if err := DefaultParams.Validate(); err != nil {
		t.Fatalf("DefaultParams invalid: %v", err)
	}
	if (Params{K: -1}).Validate() == nil {
		t.Error("negative K accepted")
	}
	if (Params{K: 101}).Validate() == nil {
		t.Error("K > 100 accepted")
	}
	if (Params{K: 50, S: -time.Second}).Validate() == nil {
		t.Error("negative S accepted")
	}
	// NaN fails both comparisons of a two-sided "outside" test.
	if (Params{K: math.NaN()}).Validate() == nil {
		t.Error("NaN K accepted")
	}
}

func TestBestThresholdPaperExample(t *testing.T) {
	// The §4.3 example: pages A and B idle 5 and 10 minutes, both accessed
	// one minute ago. Promotion histogram: one access at age 5 min
	// (bucket 2, since 5 min = 2.5 scan periods) and one at age 10 min
	// (bucket 5). Under T = 8 min (bucket 4) there is 1 promotion/min;
	// under T = 2 min (bucket 1), 2 promotions/min.
	h := promoHist(map[int]uint64{2: 1, 5: 1})
	if got := h.TailSum(4); got != 1 {
		t.Errorf("promotions under T=8min = %d, want 1", got)
	}
	if got := h.TailSum(1); got != 2 {
		t.Errorf("promotions under T=2min = %d, want 2", got)
	}
	// SLO allowing 1 promotion/min with WSS 500 pages at 0.2%/min:
	// limit = 1/min, so the best threshold is the smallest bucket with
	// tail <= 1, which is bucket 3 (tail: b1=2, b2=2, b3=1).
	slo := SLO{TargetRatePerMin: 0.002, MinThreshold: histogram.DefaultScanPeriod}
	if got := BestThreshold(h, 500, 1, slo); got != 3 {
		t.Errorf("BestThreshold = %d, want 3", got)
	}
}

func TestBestThresholdAllQuiet(t *testing.T) {
	// No promotions at all: the minimum threshold is immediately feasible.
	h := promoHist(nil)
	if got := BestThreshold(h, 1000, 1, DefaultSLO); got != 1 {
		t.Errorf("BestThreshold with no promotions = %d, want 1 (120s)", got)
	}
}

func TestBestThresholdNeverBelowMinimum(t *testing.T) {
	// Even with promotions only at age 0, the threshold floor is the
	// minimum threshold bucket.
	h := promoHist(map[int]uint64{0: 1000000})
	if got := BestThreshold(h, 10, 1, DefaultSLO); got != 1 {
		t.Errorf("BestThreshold = %d, want 1", got)
	}
}

func TestBestThresholdInfeasible(t *testing.T) {
	// Heavy promotions even at the coldest ages: returns MaxBucket.
	h := promoHist(map[int]uint64{histogram.MaxBucket: 1000000})
	if got := BestThreshold(h, 10, 1, DefaultSLO); got != histogram.MaxBucket {
		t.Errorf("BestThreshold = %d, want MaxBucket", got)
	}
}

func TestBestThresholdScalesWithWSS(t *testing.T) {
	// Bigger jobs tolerate more absolute promotions (§4.2 normalization).
	h := promoHist(map[int]uint64{3: 60})
	small := BestThreshold(h, 1000, 1, DefaultSLO)    // limit 2/min
	big := BestThreshold(h, 1_000_000, 1, DefaultSLO) // limit 2000/min
	if small <= big {
		t.Errorf("small job threshold %d should exceed big job threshold %d", small, big)
	}
	if big != 1 {
		t.Errorf("big job threshold = %d, want 1", big)
	}
}

func TestBestThresholdIntervalNormalization(t *testing.T) {
	// The same histogram over a longer interval means a lower rate.
	h := promoHist(map[int]uint64{2: 10})
	oneMin := BestThreshold(h, 1000, 1, DefaultSLO)
	fiveMin := BestThreshold(h, 1000, 5, DefaultSLO)
	if fiveMin > oneMin {
		t.Errorf("5-min interval threshold %d should be <= 1-min %d", fiveMin, oneMin)
	}
}

func TestBestThresholdMonotoneInSLOQuick(t *testing.T) {
	// Property: a stricter SLO (smaller P) never yields a lower threshold.
	f := func(raw []uint16, wss uint16) bool {
		h := histogram.New(histogram.DefaultScanPeriod)
		for _, v := range raw {
			h.Add(int(v)%histogram.NumBuckets, uint64(v%13))
		}
		w := uint64(wss) + 1
		loose := SLO{TargetRatePerMin: 0.01, MinThreshold: histogram.DefaultScanPeriod}
		tight := SLO{TargetRatePerMin: 0.0001, MinThreshold: histogram.DefaultScanPeriod}
		return BestThreshold(h, w, 1, tight) >= BestThreshold(h, w, 1, loose)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestWorkingSetPages(t *testing.T) {
	census := histogram.New(histogram.DefaultScanPeriod)
	census.Add(0, 700) // accessed within 120s
	census.Add(1, 200)
	census.Add(10, 100)
	if got := WorkingSetPages(census, DefaultSLO); got != 700 {
		t.Errorf("WorkingSetPages = %d, want 700", got)
	}
}

// clocked feeds a controller observations one scan period apart, the
// node agent's cadence.
type clocked struct {
	*Controller
	now time.Duration
}

func (c *clocked) observe(b int) {
	c.now += histogram.DefaultScanPeriod
	c.Observe(c.now, b)
}

func newCtrl(t *testing.T, p Params) *clocked {
	t.Helper()
	c, err := NewController(ControllerConfig{SLO: DefaultSLO, Params: p})
	if err != nil {
		t.Fatal(err)
	}
	return &clocked{Controller: c}
}

func TestControllerNoObservations(t *testing.T) {
	c := newCtrl(t, DefaultParams)
	if got := c.Threshold(); got != histogram.MaxBucket {
		t.Errorf("Threshold with no history = %d, want MaxBucket", got)
	}
	if c.PoolLen() != 0 {
		t.Errorf("PoolLen = %d", c.PoolLen())
	}
}

func TestControllerPercentileSelection(t *testing.T) {
	c := newCtrl(t, Params{K: 90, S: 0})
	// Best thresholds 1..100; then a final quiet interval (best = 1) so
	// the spike rule does not override the percentile.
	for b := 1; b <= 100; b++ {
		c.observe(b)
	}
	c.observe(1)
	got := c.Threshold()
	// 90th percentile of {1..100, 1} is ~91.
	if got < 85 || got > 95 {
		t.Errorf("Threshold = %d, want ~91", got)
	}
}

func TestControllerConservativeK(t *testing.T) {
	// Higher K -> higher (more conservative) threshold.
	lo := newCtrl(t, Params{K: 50, S: 0})
	hi := newCtrl(t, Params{K: 99, S: 0})
	for b := 1; b <= 100; b++ {
		lo.observe(b)
		hi.observe(b)
	}
	lo.observe(1)
	hi.observe(1)
	if lo.Threshold() >= hi.Threshold() {
		t.Errorf("K=50 threshold %d should be below K=99 threshold %d", lo.Threshold(), hi.Threshold())
	}
}

func TestControllerSpikeResponse(t *testing.T) {
	// A sudden activity spike (high last-interval best) must override the
	// percentile immediately (§4.3 bullet 2).
	c := newCtrl(t, Params{K: 50, S: 0})
	for i := 0; i < 100; i++ {
		c.observe(2)
	}
	c.observe(200)
	if got := c.Threshold(); got != 200 {
		t.Errorf("Threshold after spike = %d, want 200", got)
	}
	// Once calm returns, the percentile resumes.
	c.observe(2)
	if got := c.Threshold(); got > 10 {
		t.Errorf("Threshold after spike passed = %d, want ~2", got)
	}
}

func TestControllerWarmup(t *testing.T) {
	c, err := NewController(ControllerConfig{
		SLO:      DefaultSLO,
		Params:   Params{K: 98, S: 10 * time.Minute},
		JobStart: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.Enabled(time.Hour + 5*time.Minute) {
		t.Error("enabled during warmup")
	}
	if !c.Enabled(time.Hour + 10*time.Minute) {
		t.Error("disabled after warmup")
	}
}

// TestControllerRingBuffer: an observation stays in the pool for exactly
// PoolSpan. One exactly PoolSpan older than the newest is gone, one a
// nanosecond younger is not, and a day of low values at the agent's
// cadence flushes a day of high ones.
func TestControllerRingBuffer(t *testing.T) {
	c := newCtrl(t, Params{K: 100, S: 0})
	perDay := int(PoolSpan / histogram.DefaultScanPeriod)
	for i := 0; i < 10; i++ {
		c.observe(250)
	}
	for i := 0; i < perDay-1; i++ {
		c.observe(3)
	}
	if got, n := c.Threshold(), c.PoolLen(); got != 250 || n != perDay {
		t.Fatalf("a day after the first high value: Threshold = %d, PoolLen = %d; want 250, %d", got, n, perDay)
	}
	for i := 0; i < 10; i++ {
		c.observe(3)
	}
	if got, n := c.Threshold(), c.PoolLen(); got != 3 || n != perDay {
		t.Errorf("a day of low values: Threshold = %d, PoolLen = %d; want 3, %d", got, n, perDay)
	}

	c = newCtrl(t, Params{K: 100, S: 0})
	c.Observe(time.Hour, 250)
	c.Observe(time.Hour+PoolSpan-1, 3)
	if got := c.Threshold(); got != 250 {
		t.Errorf("a nanosecond short of a span later: Threshold = %d, want 250", got)
	}
	c.Observe(time.Hour+PoolSpan, 3)
	if got, n := c.Threshold(), c.PoolLen(); got != 3 || n != 2 {
		t.Errorf("a span later: Threshold = %d, PoolLen = %d; want 3, 2", got, n)
	}
	c.Observe(time.Hour+PoolSpan, 7) // equal times each count
	if got, n := c.Threshold(), c.PoolLen(); got != 7 || n != 3 {
		t.Errorf("a second observation at the same time: Threshold = %d, PoolLen = %d; want 7, 3", got, n)
	}
	c.Observe(4*PoolSpan, 5) // a gap longer than the span empties the pool
	if got, n := c.Threshold(), c.PoolLen(); got != 5 || n != 1 {
		t.Errorf("after a long gap: Threshold = %d, PoolLen = %d; want 5, 1", got, n)
	}
}

// TestControllerResetMatchesFresh drives a controller through a random
// sequence long enough to evict and regrow its pool, resets it for a later
// job, and requires it to behave, step by step, exactly as a
// NewController for that job fed the same second sequence — and to hold
// the same state (the pool's storage aside) right after the reset.
func TestControllerResetMatchesFresh(t *testing.T) {
	jobStart := 100 * time.Hour
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := Params{K: float64(rng.Intn(101)), S: 10 * time.Minute}
		cfg := ControllerConfig{SLO: DefaultSLO, Params: p}
		reused, err := NewController(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// High values in the first job, low ones in the second, so any
		// leftover count or last best would raise the second job's pick.
		cadence := time.Duration(1+rng.Intn(600)) * time.Second
		for now := time.Duration(0); now < 2*PoolSpan; now += cadence {
			reused.Observe(now, 128+rng.Intn(histogram.NumBuckets-128))
		}
		reused.Reset(jobStart)
		cfg.JobStart = jobStart
		fresh, err := NewController(cfg)
		if err != nil {
			t.Fatal(err)
		}
		a, b := *reused, *fresh
		a.pool, b.pool = nil, nil
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: state after Reset\n%+v\nwant\n%+v", seed, a, b)
		}
		now := jobStart
		for i := 0; i < 1000; i++ {
			if r, f := reused.Enabled(now), fresh.Enabled(now); r != f {
				t.Fatalf("seed %d step %d: Enabled = %v, fresh %v", seed, i, r, f)
			}
			if r, f := reused.Threshold(), fresh.Threshold(); r != f {
				t.Fatalf("seed %d step %d: Threshold = %d, fresh %d", seed, i, r, f)
			}
			if r, f := reused.PoolLen(), fresh.PoolLen(); r != f {
				t.Fatalf("seed %d step %d: PoolLen = %d, fresh %d", seed, i, r, f)
			}
			b := rng.Intn(64)
			reused.Observe(now, b)
			fresh.Observe(now, b)
			now += time.Duration(rng.Intn(10)) * time.Minute
		}
	}
}

// TestControllerReuseAllocatesNothing: once the ring has grown to a
// day's observations it keeps its storage across Reset, so a model
// worker replaying job after job, and an agent evicting as it appends,
// allocate nothing.
func TestControllerReuseAllocatesNothing(t *testing.T) {
	c := newCtrl(t, DefaultParams)
	job := func() {
		c.Reset(0)
		for now := time.Duration(0); now < 2*PoolSpan; now += histogram.DefaultScanPeriod {
			c.Observe(now, int(now/time.Hour)%histogram.NumBuckets)
		}
	}
	job()
	if allocs := testing.AllocsPerRun(5, job); allocs != 0 {
		t.Errorf("a reset and two days of observations allocate %v times", allocs)
	}
}

// TestControllerThresholdMatchesSortedPool holds the time-bounded,
// counting pool to its definition — keep the observations in
// (now − PoolSpan, now], sort them, take index int(K/100·(n−1)), then
// max with the last best — over random cadences (1 s to 10 min), gaps of
// up to three days, duplicate timestamps, observations landing exactly a
// span after an earlier one, and parameter pushes.
func TestControllerThresholdMatchesSortedPool(t *testing.T) {
	type obs struct {
		at time.Duration
		b  int
	}
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c, err := NewController(ControllerConfig{
			SLO: DefaultSLO, Params: Params{K: 100 * rng.Float64()},
		})
		if err != nil {
			t.Fatal(err)
		}
		cadence := time.Duration(1+rng.Intn(600)) * time.Second
		var seen []obs // every observation, oldest first
		var now time.Duration
		spread := 1 + rng.Intn(histogram.NumBuckets)
		for step := 0; step < 600; step++ {
			switch r := rng.Intn(20); {
			case r == 0: // a gap of up to three days
				now += time.Duration(rng.Int63n(int64(3 * PoolSpan)))
			case r == 1: // a duplicate timestamp
			case r == 2 && len(seen) > 0: // exactly a span after an earlier one
				now = max(now, seen[rng.Intn(len(seen))].at+PoolSpan)
			default:
				now += cadence
			}
			if rng.Intn(8) == 0 {
				k := []float64{0, 50, 98, 100, 100 * rng.Float64()}[rng.Intn(5)]
				if err := c.SetParams(Params{K: k}); err != nil {
					t.Fatal(err)
				}
			}
			b := rng.Intn(spread)
			if rng.Intn(10) == 0 {
				b = histogram.MaxBucket
			}
			c.Observe(now, b)
			seen = append(seen, obs{now, b})

			var live []int
			for _, o := range seen {
				if o.at > now-PoolSpan {
					live = append(live, o.b)
				}
			}
			sort.Ints(live)
			want := max(live[int(c.Params().K/100*float64(len(live)-1))], b)
			if got := c.Threshold(); got != want {
				t.Fatalf("seed %d step %d (cadence %v, K %v): Threshold = %d, sorted pool says %d",
					seed, step, cadence, c.Params().K, got, want)
			}
			if c.PoolLen() != len(live) {
				t.Fatalf("seed %d step %d: PoolLen = %d, want %d", seed, step, c.PoolLen(), len(live))
			}
		}
	}
}

// TestControllerCadenceIndependent: the pool spans a duration, so the
// agent's 120 s cadence and a trace's 5-minute cadence, fed the same
// best threshold per time, pick the same thresholds at the times both
// observe. The best value is constant over 10-minute blocks, so both
// pools hold the same blocks, five or two entries each; at K = 50 and
// K = 100 the nearest-rank pick lands in the same block at every pool
// size. A pool bounded by a count would span different times at the
// two cadences.
func TestControllerCadenceIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	blocks := make([]int, 3*24*6) // three days of 10-minute blocks
	for i := range blocks {
		blocks[i] = 1 + rng.Intn(histogram.MaxBucket)
	}
	bestAt := func(now time.Duration) int { return blocks[(now-1)/(10*time.Minute)] }
	for _, k := range []float64{50, 100} {
		fast := newCtrl(t, Params{K: k})
		slow := newCtrl(t, Params{K: k})
		end := time.Duration(len(blocks)) * 10 * time.Minute
		for now := 2 * time.Minute; now <= end; now += 2 * time.Minute {
			fast.Observe(now, bestAt(now))
			if now%(5*time.Minute) != 0 {
				continue
			}
			slow.Observe(now, bestAt(now))
			if now%(10*time.Minute) != 0 {
				continue
			}
			if f, s := fast.Threshold(), slow.Threshold(); f != s {
				t.Fatalf("K %v at %v: 120 s cadence picks %d, 5-minute cadence %d", k, now, f, s)
			}
		}
	}
}

func TestControllerSetParams(t *testing.T) {
	c := newCtrl(t, DefaultParams)
	if err := c.SetParams(Params{K: 80, S: time.Minute}); err != nil {
		t.Fatal(err)
	}
	if c.Params().K != 80 {
		t.Error("params not updated")
	}
	if err := c.SetParams(Params{K: 500}); err == nil {
		t.Error("invalid params accepted")
	}
}

func TestControllerObserveOutOfRangePanics(t *testing.T) {
	c := newCtrl(t, DefaultParams)
	defer func() {
		if recover() == nil {
			t.Fatal("Observe(256) did not panic")
		}
	}()
	c.Observe(0, 256)
}

func TestControllerThresholdDuration(t *testing.T) {
	c := newCtrl(t, Params{K: 100, S: 0})
	c.observe(5)
	if got := c.ThresholdDuration(histogram.DefaultScanPeriod); got != 5*120*time.Second {
		t.Errorf("ThresholdDuration = %v", got)
	}
}

func TestControllerSLOViolationFrequency(t *testing.T) {
	// Statistical property from §4.3: with K-th percentile selection, the
	// SLO is violated roughly (100-K)% of intervals at steady state.
	// Feed i.i.d. best thresholds and count intervals where the operating
	// threshold (chosen before the interval) was below the interval's
	// best (i.e. too aggressive -> violation).
	c := newCtrl(t, Params{K: 90, S: 0})
	seq := make([]int, 0, 2000)
	// Deterministic pseudo-random sequence of best thresholds 1..100.
	x := uint64(12345)
	for i := 0; i < 2000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		seq = append(seq, int(x%100)+1)
	}
	violations := 0
	for i, best := range seq {
		if i > 100 { // let the pool warm up
			if c.Threshold() < best {
				violations++
			}
		}
		c.observe(best)
	}
	rate := float64(violations) / float64(len(seq)-101)
	if rate > 0.15 {
		t.Errorf("violation rate %.3f, want <= ~0.10 for K=90", rate)
	}
	if rate == 0 {
		t.Error("violation rate 0; expected occasional violations at K=90")
	}
}

// walkPercentile is the pool percentile as Threshold read it before kth
// was kept incrementally: the nearest rank int(K/100·(n−1)), found by
// walking the bucket counts up from 0.
func walkPercentile(c *Controller) int {
	rank := int(c.params.K / 100 * float64(c.n-1))
	kth, seen := 0, int(c.poolCounts[0])
	for seen <= rank {
		kth++
		seen += int(c.poolCounts[kth])
	}
	return kth
}

// TestThresholdMatchesWalk: after every operation of random sequences of
// observations (with evictions of one entry, several, or the whole pool),
// parameter pushes and Resets, the incrementally kept percentile bucket is
// the one the walk from bucket 0 finds, and Threshold is its max with the
// last best. The percentile is compared directly, so a large last best
// cannot hide a wrong one.
func TestThresholdMatchesWalk(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c, err := NewController(ControllerConfig{SLO: DefaultSLO, Params: Params{K: 100 * rng.Float64()}})
		if err != nil {
			t.Fatal(err)
		}
		var now time.Duration
		lo, spread := rng.Intn(histogram.NumBuckets), 1+rng.Intn(40)
		check := func(step int, op string) {
			t.Helper()
			if c.PoolLen() == 0 {
				if got := c.Threshold(); got != histogram.MaxBucket {
					t.Fatalf("seed %d step %d after %s: empty pool, Threshold = %d", seed, step, op, got)
				}
				return
			}
			want := walkPercentile(c)
			if c.kth != want {
				t.Fatalf("seed %d step %d after %s (K %v, %d entries): percentile bucket %d, walk says %d",
					seed, step, op, c.params.K, c.n, c.kth, want)
			}
			if got := c.Threshold(); got != max(want, c.lastBest) {
				t.Fatalf("seed %d step %d after %s: Threshold = %d, want max(%d, %d)", seed, step, op, got, want, c.lastBest)
			}
		}
		for step := 0; step < 3000; step++ {
			switch r := rng.Intn(100); {
			case r < 2:
				c.Reset(now)
				check(step, "Reset")
			case r < 10:
				k := []float64{0, 50, 98, 100, 100 * rng.Float64()}[rng.Intn(5)]
				if err := c.SetParams(Params{K: k}); err != nil {
					t.Fatal(err)
				}
				check(step, "SetParams")
			default:
				switch e := rng.Intn(50); {
				case e == 0: // the whole pool leaves
					now += PoolSpan + time.Duration(rng.Intn(3600))*time.Second
				case e < 4: // a good part of it leaves
					now += time.Duration(rng.Int63n(int64(PoolSpan)))
				case e < 8: // a duplicate time
				default:
					now += time.Duration(1+rng.Intn(900)) * time.Second
				}
				b := min(lo+rng.Intn(spread), histogram.MaxBucket)
				if rng.Intn(20) == 0 {
					b = rng.Intn(histogram.NumBuckets)
				}
				c.Observe(now, b)
				check(step, "Observe")
			}
		}
	}
}
