package telemetry

import (
	"testing"
	"time"

	"sdfm/internal/histogram"
)

func TestTailsAt(t *testing.T) {
	h := histogram.New(histogram.DefaultScanPeriod)
	h.Add(0, 100)
	h.Add(1, 50)
	h.Add(10, 25)
	h.Add(255, 5)
	tails := TailsAt(h, []int{0, 1, 10, 255})
	want := []uint64{180, 80, 30, 5}
	for i := range want {
		if tails[i] != want[i] {
			t.Errorf("tails[%d] = %d, want %d", i, tails[i], want[i])
		}
	}
}

func TestTailsAtBadThresholdPanics(t *testing.T) {
	h := histogram.New(histogram.DefaultScanPeriod)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range threshold did not panic")
		}
	}()
	TailsAt(h, []int{300})
}

func TestDefaultThresholdsSorted(t *testing.T) {
	for i := 1; i < len(DefaultThresholds); i++ {
		if DefaultThresholds[i] <= DefaultThresholds[i-1] {
			t.Fatalf("DefaultThresholds not strictly increasing at %d", i)
		}
	}
	if DefaultThresholds[0] != 1 {
		t.Error("first threshold must be 1 scan period (120 s)")
	}
	if DefaultThresholds[len(DefaultThresholds)-1] != 255 {
		t.Error("last threshold must be the saturating bucket")
	}
}

func validEntry(key JobKey, ts int64) Entry {
	n := len(DefaultThresholds)
	cold := make([]uint64, n)
	promo := make([]uint64, n)
	for i := range cold {
		cold[i] = uint64(n - i)
		promo[i] = uint64(2 * (n - i))
	}
	return Entry{
		Key: key, TimestampSec: ts, IntervalMinutes: 5,
		WSSPages: 100, TotalPages: 400,
		ColdTails: cold, PromoTails: promo,
	}
}

func TestTraceAppendValidates(t *testing.T) {
	tr := NewTrace()
	if err := tr.Append(validEntry(JobKey{"c", "m", "j"}, 300)); err != nil {
		t.Fatal(err)
	}
	bad := validEntry(JobKey{"c", "m", "j"}, 600)
	bad.ColdTails = bad.ColdTails[:2]
	if err := tr.Append(bad); err == nil {
		t.Error("short tails accepted")
	}
	bad2 := validEntry(JobKey{"c", "m", "j"}, 600)
	bad2.PromoTails[3] = bad2.PromoTails[2] + 1 // non-monotone
	if err := tr.Append(bad2); err == nil {
		t.Error("non-monotone tails accepted")
	}
	bad3 := validEntry(JobKey{"c", "m", "j"}, 600)
	bad3.IntervalMinutes = 0
	if err := tr.Append(bad3); err == nil {
		t.Error("zero interval accepted")
	}
}

func TestThresholdIndexFor(t *testing.T) {
	tr := NewTrace()
	if got := tr.ThresholdIndexFor(1); got != 0 {
		t.Errorf("index for bucket 1 = %d, want 0", got)
	}
	if got := tr.ThresholdIndexFor(7); tr.Thresholds[got] != 8 {
		t.Errorf("index for bucket 7 maps to threshold %d, want 8", tr.Thresholds[got])
	}
	if got := tr.ThresholdIndexFor(999); got != len(tr.Thresholds)-1 {
		t.Errorf("index for huge bucket = %d, want last", got)
	}
}

func TestCollectorDeltas(t *testing.T) {
	tr := NewTrace()
	c := NewCollector(tr)
	key := JobKey{"c", "m", "j"}

	promo := histogram.New(histogram.DefaultScanPeriod)
	census := histogram.New(histogram.DefaultScanPeriod)
	census.Add(0, 70)
	census.Add(5, 30)

	// Interval 1: 10 cumulative promotions at age 5.
	promo.Add(5, 10)
	if err := c.Record(key, 5*time.Minute, 5, promo, census, 70); err != nil {
		t.Fatal(err)
	}
	// Interval 2: 4 more promotions (cumulative 14).
	promo.Add(5, 4)
	if err := c.Record(key, 10*time.Minute, 5, promo, census, 70); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 2 {
		t.Fatalf("trace len = %d", tr.Len())
	}
	// First entry carries the full cumulative count (job start), second
	// only the delta.
	i5 := tr.ThresholdIndexFor(5)
	if got := tr.Entries[0].PromoTails[i5]; got != 10 {
		t.Errorf("interval 1 promos = %d, want 10", got)
	}
	if got := tr.Entries[1].PromoTails[i5]; got != 4 {
		t.Errorf("interval 2 promos = %d, want 4", got)
	}
	if tr.Entries[1].TotalPages != 100 {
		t.Errorf("TotalPages = %d", tr.Entries[1].TotalPages)
	}
}

func TestCollectorForget(t *testing.T) {
	tr := NewTrace()
	c := NewCollector(tr)
	key := JobKey{"c", "m", "j"}
	promo := histogram.New(histogram.DefaultScanPeriod)
	census := histogram.New(histogram.DefaultScanPeriod)
	census.Add(0, 10)
	promo.Add(5, 10)
	c.Record(key, 5*time.Minute, 5, promo, census, 10)
	c.Forget(key)
	// After Forget, a fresh (restarted) job's lower cumulative counter
	// must not trip the backwards check.
	promo2 := histogram.New(histogram.DefaultScanPeriod)
	promo2.Add(5, 2)
	if err := c.Record(key, 10*time.Minute, 5, promo2, census, 10); err != nil {
		t.Fatalf("Record after Forget: %v", err)
	}
}

func TestJobKeyString(t *testing.T) {
	k := JobKey{"cluster-a", "m01", "bigtable"}
	if k.String() != "cluster-a/m01/bigtable" {
		t.Errorf("String = %q", k.String())
	}
}

// TestJobKeyCompare: keys order by their printed form, and two distinct
// keys that print alike ('/' inside a field) still get one fixed order,
// whichever of them a trace saw first.
func TestJobKeyCompare(t *testing.T) {
	a := JobKey{"a", "b/c", "d"}
	b := JobKey{"a/b", "c", "d"}
	if a.String() != b.String() {
		t.Fatalf("%#v and %#v should print alike", a, b)
	}
	if a.Compare(b) != -1 || b.Compare(a) != 1 || a.Compare(a) != 0 {
		t.Errorf("Compare: a/b %d, b/a %d, a/a %d; want -1, 1, 0", a.Compare(b), b.Compare(a), a.Compare(a))
	}
	if c := (JobKey{"a", "b", "z"}); c.Compare(JobKey{"b", "a", "a"}) != -1 {
		t.Error("a/b/z should order before b/a/a")
	}
	for _, keys := range [][]JobKey{{a, b}, {b, a}} {
		tr := NewTrace()
		for _, k := range keys {
			if err := tr.Append(validEntry(k, 300)); err != nil {
				t.Fatal(err)
			}
		}
		if got := tr.Jobs(); got[0] != a || got[1] != b {
			t.Errorf("Jobs() over %v = %#v, want a then b", keys, got)
		}
	}
}

// TestCollectorCounterResetRebaseline is the regression test for the
// half-updated-baseline bug: a cumulative promotion histogram that jumps
// backwards at a *later* threshold index while earlier indices still move
// forward used to be rejected mid-update, leaving prevPromo with a mix of
// old and new values and silently corrupting the next interval's deltas.
// A backwards counter now means "daemon restarted": the whole baseline is
// re-based atomically and the current cumulative tails become the deltas.
func TestCollectorCounterResetRebaseline(t *testing.T) {
	tr := NewTrace()
	c := NewCollector(tr)
	key := JobKey{"c", "m", "j"}
	census := histogram.New(histogram.DefaultScanPeriod)
	census.Add(0, 10)

	// Interval 1: 10 cumulative promotions at age 5. Baseline tails are 10
	// for every threshold index covering age 5 and 0 beyond.
	promo := histogram.New(histogram.DefaultScanPeriod)
	promo.Add(5, 10)
	if err := c.Record(key, 5*time.Minute, 5, promo, census, 10); err != nil {
		t.Fatal(err)
	}

	// Daemon restart: counters rebase to zero, then 12 promotions land at
	// age 2. The new cumulative tails are 12 at indices covering age 2 but
	// 0 at the index for age 3 — *ahead* of the baseline at early indices,
	// *behind* it at later ones, the exact shape that used to half-update.
	promo = histogram.New(histogram.DefaultScanPeriod)
	promo.Add(2, 12)
	if err := c.Record(key, 10*time.Minute, 5, promo, census, 10); err != nil {
		t.Fatalf("Record on counter reset: %v", err)
	}
	if got := c.Resets(); got != 1 {
		t.Errorf("Resets = %d, want 1", got)
	}

	// Interval 3: 3 more promotions at age 2 (cumulative 15 since restart).
	promo.Add(2, 3)
	if err := c.Record(key, 15*time.Minute, 5, promo, census, 10); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 3 {
		t.Fatalf("trace len = %d", tr.Len())
	}

	i2 := tr.ThresholdIndexFor(2)
	i3 := tr.ThresholdIndexFor(3)
	// The restart interval reports the promotions since the restart.
	if got := tr.Entries[1].PromoTails[i2]; got != 12 {
		t.Errorf("restart interval promos@2 = %d, want 12", got)
	}
	// The interval after the restart must see a clean baseline: exactly
	// the 3 new promotions, at every index — not deltas against a mix of
	// pre- and post-restart values.
	if got := tr.Entries[2].PromoTails[i2]; got != 3 {
		t.Errorf("post-restart interval promos@2 = %d, want 3", got)
	}
	if got := tr.Entries[2].PromoTails[i3]; got != 0 {
		t.Errorf("post-restart interval promos@3 = %d, want 0", got)
	}
}

// TestCollectorNoResetOnMonotonicCounters makes sure ordinary growth never
// trips the restart heuristic.
func TestCollectorNoResetOnMonotonicCounters(t *testing.T) {
	tr := NewTrace()
	c := NewCollector(tr)
	key := JobKey{"c", "m", "j"}
	census := histogram.New(histogram.DefaultScanPeriod)
	census.Add(0, 10)
	promo := histogram.New(histogram.DefaultScanPeriod)
	for i := 0; i < 5; i++ {
		promo.Add(4, 7)
		if err := c.Record(key, time.Duration(i+1)*5*time.Minute, 5, promo, census, 10); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Resets(); got != 0 {
		t.Errorf("Resets = %d, want 0", got)
	}
	i4 := tr.ThresholdIndexFor(4)
	for i := 1; i < 5; i++ {
		if got := tr.Entries[i].PromoTails[i4]; got != 7 {
			t.Errorf("interval %d promos = %d, want 7", i, got)
		}
	}
}
