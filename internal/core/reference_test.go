package core

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"sdfm/internal/histogram"
)

// referenceBestThreshold is BestThreshold as it was before the rule was
// shared with the fast model: a linear walk up from the floor bucket to
// the first whose promotion rate meets the SLO. BestThreshold must return
// the same bucket for every histogram.
func referenceBestThreshold(promoInterval *histogram.Histogram, wssPages uint64, intervalMinutes float64, slo SLO) int {
	if intervalMinutes <= 0 {
		panic(fmt.Sprintf("core: non-positive interval %v", intervalMinutes))
	}
	limit := slo.TargetRatePerMin * float64(wssPages) // promotions/min allowed
	tails := promoInterval.TailSums()
	minBucket := promoInterval.BucketFor(slo.MinThreshold)
	if minBucket < 1 {
		minBucket = 1 // age 0 pages are by definition not cold
	}
	for b := minBucket; b < histogram.NumBuckets; b++ {
		rate := float64(tails[b]) / intervalMinutes
		if rate <= limit {
			return b
		}
	}
	return histogram.MaxBucket
}

// walkBestIndex is the same walk over any tails from any index: the
// oracle for BestIndex on the fast model's threshold sets.
func walkBestIndex(tails []uint64, from int, wssPages uint64, intervalMinutes float64, slo SLO) int {
	limit := slo.TargetRatePerMin * float64(wssPages)
	for i := from; i < len(tails); i++ {
		if float64(tails[i])/intervalMinutes <= limit {
			return i
		}
	}
	return len(tails) - 1
}

// checkBestMatchesWalk draws one interval's promotion histogram from seed
// (a few busy buckets, the rest empty, so rates tie and plateau), and
// holds BestThreshold to the parent walk on it, and BestIndex to the walk
// over the tails at a random ascending threshold set, from every start.
func checkBestMatchesWalk(t *testing.T, seed int64, minThreshold time.Duration, wssPages uint64, intervalMinutes, target float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	h := histogram.New(histogram.DefaultScanPeriod)
	for range rng.Intn(40) {
		h.Add(rng.Intn(histogram.NumBuckets), uint64(rng.Int63n(1<<uint(rng.Intn(40)))))
	}
	slo := SLO{TargetRatePerMin: target, MinThreshold: minThreshold}
	if got, want := BestThreshold(h, wssPages, intervalMinutes, slo), referenceBestThreshold(h, wssPages, intervalMinutes, slo); got != want {
		t.Fatalf("seed %d, floor %v, wss %d, %v min, target %v: BestThreshold = %d, walk = %d",
			seed, minThreshold, wssPages, intervalMinutes, target, got, want)
	}

	all := h.TailSums()
	var tails []uint64
	for b := rng.Intn(3); b < histogram.NumBuckets; b += 1 + rng.Intn(24) {
		tails = append(tails, all[b])
	}
	for from := 0; from <= len(tails)+1; from++ {
		got := BestIndex(tails, from, wssPages, intervalMinutes, slo)
		if want := walkBestIndex(tails, from, wssPages, intervalMinutes, slo); got != want {
			t.Fatalf("seed %d, tails %v from %d, wss %d, %v min, target %v: BestIndex = %d, walk = %d",
				seed, tails, from, wssPages, intervalMinutes, target, got, want)
		}
	}
}

// FuzzBestThresholdMatchesWalk holds the bisection to the linear walk over
// random monotone tails, floors, working sets, intervals and targets.
func FuzzBestThresholdMatchesWalk(f *testing.F) {
	f.Add(int64(1), uint32(120), uint64(1000), uint16(500), uint16(2))   // the default SLO
	f.Add(int64(2), uint32(600), uint64(50_000), uint16(600), uint16(2)) // a 10-minute floor
	f.Add(int64(3), uint32(1), uint64(0), uint16(1), uint16(1))          // no working set
	f.Add(int64(4), uint32(86400), uint64(1<<40), uint16(65535), uint16(65535))
	f.Fuzz(func(t *testing.T, seed int64, floorSec uint32, wssPages uint64, intervalCenti, targetE5 uint16) {
		minThreshold := time.Duration(1+floorSec%40000) * time.Second
		intervalMinutes := (float64(intervalCenti) + 1) / 100
		target := (float64(targetE5) + 1) / 1e5 // (0, 0.66]
		checkBestMatchesWalk(t, seed, minThreshold, wssPages%(1<<50), intervalMinutes, target)
	})
}
