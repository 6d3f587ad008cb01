package histogram

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestNewPanicsOnBadPeriod(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) did not panic")
		}
	}()
	New(0)
}

func TestBucketFor(t *testing.T) {
	h := New(DefaultScanPeriod)
	cases := []struct {
		age  time.Duration
		want int
	}{
		{0, 0},
		{-time.Second, 0},
		{119 * time.Second, 0},
		{120 * time.Second, 1},
		{240 * time.Second, 2},
		{255 * 120 * time.Second, 255},
		{1000 * time.Hour, 255},
	}
	for _, c := range cases {
		if got := h.BucketFor(c.age); got != c.want {
			t.Errorf("BucketFor(%v) = %d, want %d", c.age, got, c.want)
		}
	}
}

func TestAddAndTotal(t *testing.T) {
	h := New(DefaultScanPeriod)
	h.Add(0, 5)
	h.Add(10, 3)
	h.Add(255, 2)
	if h.Total() != 10 {
		t.Errorf("Total = %d, want 10", h.Total())
	}
	if h.Count(10) != 3 {
		t.Errorf("Count(10) = %d", h.Count(10))
	}
}

func TestAddOutOfRangePanics(t *testing.T) {
	h := New(DefaultScanPeriod)
	defer func() {
		if recover() == nil {
			t.Fatal("Add(-1) did not panic")
		}
	}()
	h.Add(-1, 1)
}

func TestTailSum(t *testing.T) {
	h := New(DefaultScanPeriod)
	h.Add(0, 10) // hot pages
	h.Add(1, 5)  // idle >= 120s
	h.Add(5, 3)  // idle >= 600s
	if got := h.TailSum(0); got != 18 {
		t.Errorf("TailSum(0) = %d, want 18", got)
	}
	if got := h.TailSum(1); got != 8 {
		t.Errorf("TailSum(1) = %d, want 8", got)
	}
	if got := h.TailSum(2); got != 3 {
		t.Errorf("TailSum(2) = %d, want 3", got)
	}
	if got := h.TailSum(6); got != 0 {
		t.Errorf("TailSum(6) = %d, want 0", got)
	}
	if got := h.TailSum(-3); got != 18 {
		t.Errorf("TailSum(-3) = %d, want 18 (clamped)", got)
	}
}

func TestColdAtThreshold(t *testing.T) {
	h := New(DefaultScanPeriod)
	// Page idle for 10 minutes -> bucket 5.
	h.Add(h.BucketFor(10*time.Minute), 1)
	if got := h.ColdAtThreshold(120 * time.Second); got != 1 {
		t.Errorf("ColdAtThreshold(120s) = %d, want 1", got)
	}
	if got := h.ColdAtThreshold(10 * time.Minute); got != 1 {
		t.Errorf("ColdAtThreshold(10m) = %d, want 1", got)
	}
	if got := h.ColdAtThreshold(12 * time.Minute); got != 0 {
		t.Errorf("ColdAtThreshold(12m) = %d, want 0", got)
	}
}

func TestTailSumsMatchesTailSum(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	h := New(DefaultScanPeriod)
	for i := 0; i < 500; i++ {
		h.Add(rng.Intn(NumBuckets), uint64(rng.Intn(100)))
	}
	sums := h.TailSums()
	for b := 0; b < NumBuckets; b++ {
		if sums[b] != h.TailSum(b) {
			t.Fatalf("TailSums[%d] = %d, TailSum = %d", b, sums[b], h.TailSum(b))
		}
	}
}

func TestSetCountsRecomputesTotal(t *testing.T) {
	h := New(DefaultScanPeriod)
	var counts [NumBuckets]uint64
	counts[0], counts[255] = 4, 6
	h.SetCounts(counts)
	if h.Total() != 10 {
		t.Errorf("Total = %d, want 10", h.Total())
	}
}

func TestTailSumMonotoneProperty(t *testing.T) {
	// Property: TailSum is nonincreasing in the bucket index, TailSum(0) == Total.
	f := func(adds []uint16) bool {
		h := New(DefaultScanPeriod)
		for _, a := range adds {
			h.Add(int(a)%NumBuckets, uint64(a%97))
		}
		if h.TailSum(0) != h.Total() {
			return false
		}
		prev := h.TailSum(0)
		for b := 1; b < NumBuckets; b++ {
			cur := h.TailSum(b)
			if cur > prev {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestCountsAccessor(t *testing.T) {
	h := New(DefaultScanPeriod)
	h.Add(3, 9)
	counts := h.Counts()
	if counts[3] != 9 {
		t.Errorf("Counts()[3] = %d", counts[3])
	}
	counts[3] = 0 // copy semantics
	if h.Count(3) != 9 {
		t.Error("Counts() exposed internal storage")
	}
}

func TestCountOutOfRangePanics(t *testing.T) {
	h := New(DefaultScanPeriod)
	defer func() {
		if recover() == nil {
			t.Fatal("Count(-1) did not panic")
		}
	}()
	h.Count(-1)
}

func BenchmarkScanUpdate(b *testing.B) {
	// The kstaled hot path: one Add per page per scan.
	h := New(DefaultScanPeriod)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Add(i%NumBuckets, 1)
	}
}

func BenchmarkTailSums(b *testing.B) {
	h := New(DefaultScanPeriod)
	for i := 0; i < NumBuckets; i++ {
		h.Add(i, uint64(i))
	}
	for i := 0; i < b.N; i++ {
		_ = h.TailSums()
	}
}
