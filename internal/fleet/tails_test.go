package fleet

import (
	"math"
	"reflect"
	"testing"
	"time"

	"sdfm/internal/obs"
	"sdfm/internal/simtime"
	"sdfm/internal/telemetry"
	"sdfm/internal/workload"
)

// cpRoundsConfig is the fleet the cp_rounds benchmark generates: 4
// clusters × 8 machines × 5 slots over 72 h, 138,240 entries.
func cpRoundsConfig(seed int64) Config {
	return Config{Clusters: 4, MachinesPerCluster: 8, JobsPerMachine: 5, Duration: 72 * time.Hour, Seed: seed}
}

// digestSink keeps each appended entry's checksum, which digests every
// field, so two full-size traces compare without holding either.
type digestSink []uint64

func (s *digestSink) Append(e telemetry.Entry) error {
	*s = append(*s, e.ComputeChecksum())
	return nil
}

// TestFastTailsMatchExact holds GenerateTo, fast sums and all, to the
// exact oracle entry for entry on three seeds and three fleet shapes,
// and the fallback to at most one entry in a thousand on the cp_rounds
// fleet. -short and -race keep one seed and the two small shapes.
func TestFastTailsMatchExact(t *testing.T) {
	shapes := map[string]func(int64) Config{
		"churny": func(seed int64) Config {
			return Config{Clusters: 2, MachinesPerCluster: 4, JobsPerMachine: 4, Duration: 24 * time.Hour, Seed: seed, ChurnFraction: 0.8}
		},
		"one cluster": func(seed int64) Config {
			return Config{Clusters: 1, MachinesPerCluster: 4, JobsPerMachine: 6, Duration: 48 * time.Hour, Seed: seed}
		},
		"cp_rounds": cpRoundsConfig,
	}
	seeds := []int64{1, 42, 1337}
	if testing.Short() || raceEnabled {
		delete(shapes, "cp_rounds")
		seeds = []int64{42}
	}
	for name, shape := range shapes {
		for _, seed := range seeds {
			cfg := shape(seed)
			var want, got digestSink
			if err := referenceGenerateTo(cfg, &want); err != nil {
				t.Fatal(err)
			}
			o := obs.NewMulti().Observer("fleet")
			cfg.Obs = o
			if err := GenerateTo(cfg, &got); err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s seed %d: %d entries, oracle %d", name, seed, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s seed %d: entry %d differs from the exact path", name, seed, i)
				}
			}
			fallbacks := o.Counter("sdfm_fleet_exact_fallbacks_total", "").Value()
			t.Logf("%s seed %d: %v of %d entries fell back", name, seed, fallbacks, len(want))
			if name == "cp_rounds" && fallbacks > float64(len(want))/1000 {
				t.Errorf("%s seed %d: %v of %d entries fell back, more than 0.1 %%", name, seed, fallbacks, len(want))
			}
		}
	}
}

// TestExactFallbackChangesNothing: a margin so wide that every tail is
// ambiguous sends every entry to exactEntry, and the trace equals the
// default run's; sdfm_fleet_exact_fallbacks_total counts every entry
// that has a tail to sum, that is, every entry of an instance at least
// one scan period old.
func TestExactFallbackChangesNothing(t *testing.T) {
	cfg := smallConfig(29)
	want := telemetry.NewTrace()
	if err := GenerateTo(cfg, want); err != nil {
		t.Fatal(err)
	}
	summed := 0
	err := referenceSweep(cfg, func(inst *jobInstance, at time.Duration, thresholdsSec []float64, _ float64) error {
		if thresholdsSec[0] <= (at - inst.start).Seconds() {
			summed++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if summed == want.Len() {
		t.Error("no entry is younger than a scan period: the fast path's empty case goes untested")
	}
	o := obs.NewMulti().Observer("fleet")
	cfg.Obs = o
	got := telemetry.NewTrace()
	if err := generateTo(cfg, got, blockEntries, 2, 1e6); err != nil {
		t.Fatal(err)
	}
	if i, ok := sameEntries(want.Entries, got.Entries); !ok {
		t.Fatalf("entry %d differs (%d vs %d entries)", i, got.Len(), want.Len())
	}
	if n := o.Counter("sdfm_fleet_exact_fallbacks_total", "").Value(); n != float64(summed) {
		t.Errorf("%v fallbacks, want all %d entries with tails to sum", n, summed)
	}
}

// tailGap returns the largest gap between the fast and exact tail values
// of draw d, before truncation, in units of the margin's reach at the
// exact value (v+1): the fast path can mis-round a tail only if this
// exceeds tailMargin.
func tailGap(inst *jobInstance, d draw, ch *tailChain, thresholdsSec []float64, intervalMin float64) float64 {
	n := len(thresholdsSec)
	live := 0
	for live < n && thresholdsSec[live] <= d.ageCapSec {
		live++
	}
	var fc, fp, ec, ep [maxThresholds]float64
	fw := inst.fastSums(d, ch, live, intervalMin*60, fc[:live], fp[:live])
	ew := inst.exactSums(d, thresholdsSec, intervalMin*60, ec[:n], ep[:n])
	gap := 0.0
	if fw != ew {
		gap = math.Inf(1)
	}
	for i := range n {
		for _, v := range [][2]float64{
			{fc[i] * d.coldNoise, ec[i] * d.coldNoise},
			{fp[i] * d.promoNoise, ep[i] * d.promoNoise},
		} {
			gap = max(gap, math.Abs(v[0]-v[1])/(v[1]+1))
		}
	}
	return gap
}

// TestFastTailHeadroom holds the fast sums to a thousandth of the
// margin: the largest gap between fast and exact tail values over every
// entry of the cp_rounds fleet. An approximation looser than the error
// bound fails here long before it can mis-round a tail. The WSS sum
// must agree bit for bit. -short and -race measure a small fleet.
func TestFastTailHeadroom(t *testing.T) {
	cfgs := []Config{cpRoundsConfig(42), cpRoundsConfig(1337)}
	if testing.Short() || raceEnabled {
		cfgs = []Config{smallConfig(42)}
	}
	ch := newTailChain(telemetry.DefaultThresholds)
	for _, cfg := range cfgs {
		worst := 0.0
		err := referenceSweep(cfg, func(inst *jobInstance, at time.Duration, thresholdsSec []float64, intervalMin float64) error {
			worst = max(worst, tailGap(inst, inst.draw(at), &ch, thresholdsSec, intervalMin))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("seed %d: largest gap %.3g, %.2g of the margin", cfg.Seed, worst, worst/tailMargin)
		if worst > tailMargin/1000 {
			t.Errorf("seed %d: fast tails stray %.3g from the exact ones, over tailMargin/1000 = %g", cfg.Seed, worst, tailMargin/1000)
		}
	}
}

// TestTailChain: each step multiplies two powers already reached, and
// step stepOf[i] reaches threshold i's power.
func TestTailChain(t *testing.T) {
	for _, thresholds := range [][]int{telemetry.DefaultThresholds, {1}, {3}, {2, 7, 64, 1000}, {5, 6, 7, 8, 200}} {
		ch := newTailChain(thresholds)
		exps := []int{0, 1}
		for k, s := range ch.steps {
			if int(s.a) >= len(exps) || int(s.b) >= len(exps) {
				t.Fatalf("%v: step %d uses a power not yet reached", thresholds, k)
			}
			exps = append(exps, exps[s.a]+exps[s.b])
			if s.tail >= 0 && ch.stepOf[s.tail] != k {
				t.Errorf("%v: step %d names threshold %d, which stepOf puts at %d", thresholds, k, s.tail, ch.stepOf[s.tail])
			}
		}
		for i, e := range thresholds {
			if got := exps[ch.stepOf[i]+2]; got != e {
				t.Errorf("%v: threshold %d reaches power %d", thresholds, i, got)
			}
		}
	}
	if ch := newTailChain(telemetry.DefaultThresholds); len(ch.steps) != 27 {
		t.Errorf("default thresholds take %d products, want 27", len(ch.steps))
	}
}

// FuzzEntryMatchesExact holds entry to exactEntry on one instance of any
// archetype at any age, diurnal phase and pair of noise draws: the fast
// sums stay within tailMargin/1000 of the exact ones, and the entry is
// the exact entry whether or not it fell back.
func FuzzEntryMatchesExact(f *testing.F) {
	f.Add(int64(42), uint8(0), uint32(3600), 0.0, 0.0, 0.0)
	f.Add(int64(1337), uint8(3), uint32(72*3600), 1.5, -2.0, 3.0)
	f.Add(int64(7), uint8(5), uint32(400), 4.0, 5.0, -5.0)
	f.Add(int64(1), uint8(2), uint32(10*86400), -1.0, 0.5, 0.1)
	meta := telemetry.NewTrace()
	thresholdsSec := make([]float64, len(meta.Thresholds))
	for i, b := range meta.Thresholds {
		thresholdsSec[i] = float64(b * int(meta.ScanPeriodSeconds))
	}
	ch := newTailChain(meta.Thresholds)
	const intervalMin = 5.0
	f.Fuzz(func(t *testing.T, seed int64, archIdx uint8, ageSec uint32, phase, coldZ, promoZ float64) {
		if math.IsNaN(phase+coldZ+promoZ) || math.IsInf(phase+coldZ+promoZ, 0) {
			return
		}
		arch := workload.Archetypes[int(archIdx)%len(workload.Archetypes)]
		inst := newInstance(telemetry.JobKey{Cluster: "c", Machine: "m", Job: arch.Name}, arch, simtime.Rand(seed, "fuzz"))
		at := time.Duration(ageSec%(30*86400)+1) * time.Second
		z := func(v float64) float64 { return min(max(v, -8), 8) }
		d := draw{
			f:          1 + arch.DiurnalAmplitude*math.Sin(phase),
			ageCapSec:  at.Seconds(),
			coldNoise:  math.Exp(noiseColdSigma * z(coldZ)),
			promoNoise: math.Exp(noisePromoSigma * z(promoZ)),
		}
		if gap := tailGap(inst, d, &ch, thresholdsSec, intervalMin); gap > tailMargin/1000 {
			t.Fatalf("fast tails stray %.3g from the exact ones, over tailMargin/1000", gap)
		}
		n := len(thresholdsSec)
		want := inst.exactEntry(at, d, thresholdsSec, intervalMin, make([]uint64, 2*n))
		got, _ := inst.entry(at, d, &ch, thresholdsSec, intervalMin, tailMargin, make([]uint64, 2*n))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("entry differs from the exact one:\n got %+v\nwant %+v", got, want)
		}
	})
}
