package telemetry

import (
	"math"
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

// TestEntryValidateRejectsNonFinite: NaN compares false with everything,
// so each range check must be written to fail on it, and an infinite
// interval is no interval either.
func TestEntryValidateRejectsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name           string
		interval, frac float64
		wantErr        bool
	}{
		{"valid", 5, 0.5, false},
		{"frac zero", 5, 0, false},
		{"frac one", 5, 1, false},
		{"long interval", 1e6, 1, false},
		{"zero interval", 0, 1, true},
		{"negative interval", -5, 1, true},
		{"NaN interval", nan, 1, true},
		{"+Inf interval", inf, 1, true},
		{"-Inf interval", -inf, 1, true},
		{"negative frac", 5, -0.1, true},
		{"frac above one", 5, 1.1, true},
		{"NaN frac", 5, nan, true},
		{"+Inf frac", 5, inf, true},
		{"-Inf frac", 5, -inf, true},
	} {
		e := validEntry(JobKey{"c", "m", "j"}, 300)
		e.IntervalMinutes, e.CompressibleFrac = tc.interval, tc.frac
		if err := e.Validate(len(DefaultThresholds)); (err != nil) != tc.wantErr {
			t.Errorf("%s (interval %v, frac %v): Validate = %v, want error %v",
				tc.name, tc.interval, tc.frac, err, tc.wantErr)
		}
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

// TestCollectorDeltas: the agent hands Record each interval's promotions
// and the collector exports exactly those, as tails, beside the census.
func TestCollectorDeltas(t *testing.T) {
	tr := NewTrace()
	c := NewCollector(tr)
	key := JobKey{"c", "m", "j"}

	census := histogram.New(histogram.DefaultScanPeriod)
	census.Add(0, 70)
	census.Add(5, 30)

	// Interval 1: 10 promotions at age 5; interval 2: 4 at age 5, 3 at 2.
	promo := histogram.New(histogram.DefaultScanPeriod)
	promo.Add(5, 10)
	if err := c.Record(key, 5*time.Minute, 5, promo, census, 70); err != nil {
		t.Fatal(err)
	}
	promo = histogram.New(histogram.DefaultScanPeriod)
	promo.Add(5, 4)
	promo.Add(2, 3)
	if err := c.Record(key, 10*time.Minute, 5, promo, census, 70); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 2 {
		t.Fatalf("trace len = %d", tr.Len())
	}
	i2, i5 := tr.ThresholdIndexFor(2), tr.ThresholdIndexFor(5)
	for _, tc := range []struct {
		entry, index int
		want         uint64
	}{{0, i2, 10}, {0, i5, 10}, {1, i2, 7}, {1, i5, 4}} {
		if got := tr.Entries[tc.entry].PromoTails[tc.index]; got != tc.want {
			t.Errorf("interval %d promos at threshold %d = %d, want %d",
				tc.entry+1, tr.Thresholds[tc.index], got, tc.want)
		}
	}
	if e := tr.Entries[1]; e.TotalPages != 100 || e.ColdTails[i5] != 30 || e.WSSPages != 70 {
		t.Errorf("entry 2: total %d, cold at 5 %d, WSS %d; want 100, 30, 70", e.TotalPages, e.ColdTails[i5], e.WSSPages)
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
