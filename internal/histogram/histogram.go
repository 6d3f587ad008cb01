// Package histogram implements the two per-job histograms at the heart of
// the paper's cold-page identification mechanism (§4.3–4.4, §5.1):
//
//   - the cold-age histogram, which for each cold-age threshold T records
//     how many pages have not been accessed for at least T seconds, and
//   - the promotion histogram, which records the age a page had reached at
//     the moment it was accessed again (i.e. the promotions that *would*
//     have happened under every possible threshold).
//
// Ages are tracked in scan-period quanta. The production system stores an
// 8-bit age in struct page and scans every 120 s, so ages saturate at
// 255 × 120 s ≈ 8.5 h; this package mirrors that exactly.
package histogram

import (
	"fmt"
	"time"
)

// NumBuckets is the number of age buckets, matching the kernel's 8-bit
// per-page age field.
const NumBuckets = 256

// MaxBucket is the saturating age bucket.
const MaxBucket = NumBuckets - 1

// DefaultScanPeriod is the production kstaled scan period; it is also the
// minimum cold-age threshold the system supports (§4.2).
const DefaultScanPeriod = 120 * time.Second

// Histogram is a fixed-shape histogram over the 8-bit page-age space.
// Bucket i covers ages in [i, i+1) scan periods; bucket MaxBucket is
// saturating. The zero value is unusable; construct with New so the scan
// period is always set.
type Histogram struct {
	scanPeriod time.Duration
	counts     [NumBuckets]uint64
	total      uint64
}

// New returns an empty histogram whose age quantum is scanPeriod.
func New(scanPeriod time.Duration) *Histogram {
	if scanPeriod <= 0 {
		panic(fmt.Sprintf("histogram: non-positive scan period %v", scanPeriod))
	}
	return &Histogram{scanPeriod: scanPeriod}
}

// BucketFor maps an age duration to its bucket index, saturating at
// MaxBucket. Negative ages map to bucket 0.
func (h *Histogram) BucketFor(age time.Duration) int {
	if age <= 0 {
		return 0
	}
	b := int(age / h.scanPeriod)
	if b > MaxBucket {
		return MaxBucket
	}
	return b
}

// Add increments bucket b by n.
func (h *Histogram) Add(b int, n uint64) {
	if b < 0 || b >= NumBuckets {
		panic(fmt.Sprintf("histogram: bucket %d out of range", b))
	}
	h.counts[b] += n
	h.total += n
}

// Count returns the count in bucket b.
func (h *Histogram) Count(b int) uint64 {
	if b < 0 || b >= NumBuckets {
		panic(fmt.Sprintf("histogram: bucket %d out of range", b))
	}
	return h.counts[b]
}

// Total returns the sum over all buckets.
func (h *Histogram) Total() uint64 { return h.total }

// TailSum returns the sum of counts in buckets [b, NumBuckets).
//
// For a cold-age histogram keyed by current page age, TailSum(BucketFor(T))
// is the number of pages that have been idle for at least T. For a
// promotion histogram keyed by age-at-access, it is the number of accesses
// that would have been promotions under threshold T.
func (h *Histogram) TailSum(b int) uint64 {
	if b < 0 {
		b = 0
	}
	var s uint64
	for i := b; i < NumBuckets; i++ {
		s += h.counts[i]
	}
	return s
}

// TailSums returns the full suffix-sum array: out[i] = TailSum(i). It is
// the representation the fast far-memory model replays, because it answers
// "cold bytes / promotions under threshold T" in O(1) per query.
func (h *Histogram) TailSums() [NumBuckets]uint64 {
	var out [NumBuckets]uint64
	var s uint64
	for i := NumBuckets - 1; i >= 0; i-- {
		s += h.counts[i]
		out[i] = s
	}
	return out
}

// ColdAtThreshold returns TailSum at the bucket covering threshold T.
func (h *Histogram) ColdAtThreshold(t time.Duration) uint64 {
	return h.TailSum(h.BucketFor(t))
}

// Counts returns a copy of the raw bucket counts.
func (h *Histogram) Counts() [NumBuckets]uint64 { return h.counts }

// SetCounts replaces the bucket counts wholesale (used when decoding
// telemetry records).
func (h *Histogram) SetCounts(counts [NumBuckets]uint64) {
	h.counts = counts
	h.total = 0
	for _, c := range counts {
		h.total += c
	}
}
