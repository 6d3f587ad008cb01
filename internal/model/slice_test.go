package model

import (
	"hash/fnv"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"sdfm/internal/core"
	"sdfm/internal/telemetry"
)

// keyPoint maps a job key to a stable point in [0, 1), standing in for the
// tuner's ring hash.
func keyPoint(k telemetry.JobKey) float64 {
	h := fnv.New32a()
	h.Write([]byte(k.String()))
	return float64(h.Sum32()%1000) / 1000
}

// damagedTrace is equivTrace as a fleet really delivers it: entries arrive
// in no particular order and a tenth of them never arrive, so per-job
// series need the permutation sort and carry gaps that a slice boundary
// can cut through.
func damagedTrace(t *testing.T, rng *rand.Rand) *telemetry.Trace {
	t.Helper()
	tr := equivTrace(t)
	rng.Shuffle(len(tr.Entries), func(i, j int) { tr.Entries[i], tr.Entries[j] = tr.Entries[j], tr.Entries[i] })
	tr.Entries = tr.Entries[:len(tr.Entries)*9/10]
	return tr
}

// TestSliceEqualsCompileOfFilteredEntries locks the one slicer to the
// definition it replaced five copies of: replaying ct.Slice(lo, hi, keep)
// is replaying a fresh compile of exactly the entries with lo <= ts < hi
// whose job keep accepts — job set, order, gap counts and all.
func TestSliceEqualsCompileOfFilteredEntries(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	configs := []Config{
		{Params: core.DefaultParams, SLO: core.DefaultSLO},
		{Params: core.Params{K: 99.9, S: 2 * time.Hour}, SLO: core.DefaultSLO},
		{Params: core.Params{K: 60, S: 10 * time.Minute}, SLO: core.DefaultSLO},
	}
	for ti, tr := range []*telemetry.Trace{
		damagedTrace(t, rng),
		// Job series longer than the pool's span evict from it.
		longTrace(t),
	} {
		full := Compile(tr)
		minTS, maxTS := full.TimeBounds()
		span := maxTS - minTS + 1
		for trial := 0; trial < 200; trial++ {
			// Bounds range past both ends of the trace and cross over.
			lo := minTS - span/10 + rng.Int63n(span*12/10)
			hi := minTS - span/10 + rng.Int63n(span*12/10)
			frac := rng.Float64()
			switch trial % 10 {
			case 0:
				frac = 0 // a keep that rejects every job
			case 1:
				frac = 1
			case 2:
				lo, hi = minTS, maxTS+1 // everything
			}
			keep := func(k telemetry.JobKey) bool { return keyPoint(k) < frac }

			filtered := telemetry.NewTrace()
			for _, e := range tr.Entries {
				if e.TimestampSec >= lo && e.TimestampSec < hi && keep(e.Key) {
					filtered.Entries = append(filtered.Entries, e)
				}
			}
			sl := full.Slice(lo, hi, keep)
			ref := Compile(filtered)
			if sl.Jobs() != ref.Jobs() || sl.Intervals() != ref.Intervals() {
				t.Fatalf("trace %d trial %d [%d, %d) frac %.3f: slice has %d jobs / %d intervals, filtered compile %d / %d",
					ti, trial, lo, hi, frac, sl.Jobs(), sl.Intervals(), ref.Jobs(), ref.Intervals())
			}
			if hi <= lo && sl.Intervals() != 0 {
				t.Fatalf("trace %d trial %d: [%d, %d) is empty but the slice holds %d intervals", ti, trial, lo, hi, sl.Intervals())
			}
			for ci, cfg := range configs {
				want, err := ref.Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				got, err := sl.Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("trace %d trial %d [%d, %d) frac %.3f config %d: slice replay diverges from compile of the filtered entries\nwant %v\ngot  %v",
						ti, trial, lo, hi, frac, ci, want, got)
				}
			}
		}
	}
}

// TestSliceNilKeepAndBounds covers the two conveniences: a nil keep takes
// every job, and TimeBounds brackets exactly the intervals present.
func TestSliceNilKeepAndBounds(t *testing.T) {
	tr := variableTrace(t, []variableEntry{{900, 5}, {300, 5}, {600, 5}})
	ct := Compile(tr)
	if lo, hi := ct.TimeBounds(); lo != 300 || hi != 900 {
		t.Errorf("TimeBounds() = (%d, %d), want (300, 900)", lo, hi)
	}
	if lo, hi := Compile(telemetry.NewTrace()).TimeBounds(); lo != 0 || hi != 0 {
		t.Errorf("empty TimeBounds() = (%d, %d), want (0, 0)", lo, hi)
	}
	sl := ct.Slice(600, 901, nil)
	if sl.Jobs() != 1 || sl.Intervals() != 2 {
		t.Errorf("Slice(600, 901, nil) holds %d jobs / %d intervals, want 1 / 2", sl.Jobs(), sl.Intervals())
	}
	if lo, hi := sl.TimeBounds(); lo != 600 || hi != 900 {
		t.Errorf("slice TimeBounds() = (%d, %d), want (600, 900)", lo, hi)
	}
	if n := ct.Slice(600, 600, nil).Intervals(); n != 0 {
		t.Errorf("Slice(600, 600) holds %d intervals, want none", n)
	}
}
