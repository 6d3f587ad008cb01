package workload

import (
	"fmt"
	"math"
	"testing"
	"time"

	"sdfm/internal/mem"
	"sdfm/internal/pagedata"
	"sdfm/internal/stats"
)

// The law reference the column sweep is held to: the generator this
// package shipped before the queue became a column. It keeps every page's
// next access in a binary heap and pops the accesses of a tick in global
// time order — a pop and a push per access, so it is slow, and obviously
// the process the paper's phenomenology was tuned on. event, eventHeap and
// referenceTick are that code verbatim; only the receiver changed. It
// lives here, not in the shipped package (precedent:
// internal/model/reference_test.go).
//
// The sweep hands the same i.i.d. draws to the same per-page chains in a
// different order, so the two are equal in law, not bit for bit — except
// where page order and time order coincide (one page), which is the exact
// anchor below.

// event is a scheduled page access.
type event struct {
	at   time.Duration
	page mem.PageID
}

// eventHeap is a binary min-heap on at. It hand-implements the exact
// sift algorithms of container/heap on the concrete element type: the
// sequence of comparisons and swaps is identical, so the pop order —
// including the arrangement-dependent order of equal timestamps — is
// bit-for-bit the same as the container/heap version it replaces, while
// avoiding interface dispatch and per-event boxing on the hottest loop
// in the simulator.
type eventHeap []event

func (h *eventHeap) init() {
	n := len(*h)
	for i := n/2 - 1; i >= 0; i-- {
		h.down(i, n)
	}
}

func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	h.up(len(*h) - 1)
}

func (h *eventHeap) pop() event {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	h.down(0, n)
	e := s[n]
	*h = s[:n]
	return e
}

func (h *eventHeap) up(j int) {
	s := *h
	for {
		i := (j - 1) / 2 // parent
		if i == j || s[j].at >= s[i].at {
			break
		}
		s[i], s[j] = s[j], s[i]
		j = i
	}
}

func (h *eventHeap) down(i0, n int) {
	s := *h
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && s[j2].at < s[j1].at {
			j = j2 // = 2*i + 2  // right child
		}
		if s[j].at >= s[i].at {
			break
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
}

// reference is the heap generator running on a Workload's own draws: the
// periods and first-access times New drew, and its RNG from there on. The
// wrapped Workload's Tick must not be called.
type reference struct {
	*Workload
	events eventHeap
}

// newReference builds the heap the way New used to: one event per page
// appended in page order, then heapified.
func newReference(w *Workload) *reference {
	r := &reference{Workload: w, events: make(eventHeap, 0, w.pages)}
	for i, at := range w.next {
		r.events = append(r.events, event{at: at, page: mem.PageID(i)})
	}
	r.events.init()
	return r
}

func (w *reference) referenceTick(now time.Duration, access func(id mem.PageID, write bool)) {
	for len(w.events) > 0 && w.events[0].at <= now {
		e := w.events.pop()
		write := w.rng.Float64() < w.arch.WriteFraction
		access(e.page, write)
		mean := w.periods[e.page] / w.DiurnalFactor(now)
		gap := w.rng.ExpFloat64() * mean
		if gap < 0.5 {
			gap = 0.5
		}
		w.events.push(event{
			at:   e.at + time.Duration(gap*float64(time.Second)),
			page: e.page,
		})
	}
	if w.arch.ScanEvery > 0 && now >= w.nextScan {
		for i := 0; i < w.pages; i++ {
			access(mem.PageID(i), false)
		}
		for now >= w.nextScan {
			w.nextScan += w.arch.ScanEvery
		}
	}
}

// pinned fixes an archetype's page population mid-range, as bench/sim.go
// does, so the seed draws periods and access times but not the job's size.
func pinned(a *Archetype) *Archetype {
	p := *a
	p.PagesMin = (a.PagesMin + a.PagesMax) / 2
	p.PagesMax = p.PagesMin
	return &p
}

// coldStore is the 99.5 %-cold shape of bench/sim.go: the sweep's worst
// case, nearly every page skipped.
var coldStore = &Archetype{
	Name: "coldstore", PagesMin: 50_000, PagesMax: 50_000,
	Bands: []Band{
		{Weight: 0.005, MinPeriod: 10 * time.Second, MaxPeriod: 2 * time.Minute},
		{Weight: 0.995, MinPeriod: 250 * time.Hour, MaxPeriod: 500 * time.Hour},
	},
	Mix:           pagedata.NewMix(0.05, 0.35, 0.25, 0.15, 0.20),
	WriteFraction: 0.15,
	CPUCores:      0.05,
}

const lawTick = 120 * time.Second // kstaled's scan period

type access struct {
	id    mem.PageID
	write bool
}

// TestSinglePageMatchesReference is the exact anchor. With one page, page
// order is time order, both generators consume the RNG identically, and
// the (page, write) sequence and the page's next-access time must agree
// bit for bit: the per-page chain — write draw, gap draw, clamp, diurnal
// factor at the tick's now — did not change.
func TestSinglePageMatchesReference(t *testing.T) {
	for _, amp := range []float64{0, 0.6} {
		arch := &Archetype{
			Name: "one-page", PagesMin: 1, PagesMax: 1,
			// From clamped gaps (Exp·1 s < 0.5 s) to whole idle ticks.
			Bands:            []Band{{1, time.Second, time.Minute}},
			WriteFraction:    0.3,
			DiurnalAmplitude: amp,
			DiurnalPhase:     1,
			BackgroundPeriod: time.Hour,
		}
		for seed := int64(1); seed <= 5; seed++ {
			w := newWL(t, arch, seed)
			ref := newReference(newWL(t, arch, seed))
			var got, want []access
			total := 0
			for tick := 1; tick <= 10_000; tick++ {
				now := time.Duration(tick) * lawTick
				got, want = got[:0], want[:0]
				w.Tick(now, func(id mem.PageID, wr bool) { got = append(got, access{id, wr}) })
				ref.referenceTick(now, func(id mem.PageID, wr bool) { want = append(want, access{id, wr}) })
				if len(got) != len(want) {
					t.Fatalf("amp %v seed %d tick %d: %d accesses, reference %d", amp, seed, tick, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("amp %v seed %d tick %d access %d: %+v, reference %+v", amp, seed, tick, i, got[i], want[i])
					}
				}
				if w.next[0] != ref.events[0].at {
					t.Fatalf("amp %v seed %d tick %d: next access at %v, reference %v", amp, seed, tick, w.next[0], ref.events[0].at)
				}
				total += len(got)
			}
			if total < 10_000 {
				t.Errorf("amp %v seed %d: only %d accesses in 10,000 ticks; the anchor compared almost nothing", amp, seed, total)
			}
		}
	}
}

// lawStats is what one generator showed over the measured ticks of one
// seed — everything a consumer of Tick can see at kstaled's resolution:
// accesses, distinct pages and writes per tick, then the end-of-run census
// of "ticks since last touch", as the number of pages last touched at
// least lawAges[k] ticks ago (never-touched pages included).
type lawStats [3 + len(lawAges)]float64

var lawAges = [...]int{1, 2, 4, 8, 16, 32}

func lawName(i int) string {
	if i < 3 {
		return [...]string{"accesses", "distinct", "writes"}[i]
	}
	return fmt.Sprintf("idle>=%d", lawAges[i-3])
}

const (
	lawWarmTicks     = 12
	lawMeasuredTicks = 30
)

func runLaw(pages int, tick func(now time.Duration, access func(mem.PageID, bool))) lawStats {
	var st lawStats
	last := make([]int, pages) // tick of the last touch; 0 = never
	for n := 1; n <= lawWarmTicks+lawMeasuredTicks; n++ {
		measured := n > lawWarmTicks
		tick(time.Duration(n)*lawTick, func(id mem.PageID, write bool) {
			if measured {
				st[0]++
				if last[id] != n {
					st[1]++
				}
				if write {
					st[2]++
				}
			}
			last[id] = n
		})
	}
	for i := 0; i < 3; i++ {
		st[i] /= lawMeasuredTicks
	}
	for _, l := range last {
		for k, age := range lawAges {
			if lawWarmTicks+lawMeasuredTicks-l >= age {
				st[3+k]++
			}
		}
	}
	return st
}

// lawCell is one metric compared over a set of seeds: the reference's mean,
// the mean paired difference (sweep − reference) and its standard error.
type lawCell struct {
	name          string
	ref, diff, se float64
}

func (c lawCell) String() string {
	return fmt.Sprintf("%-8s reference %10.1f  difference %+8.2f (%+.3f %%)  SE %.2f", c.name, c.ref, c.diff, 100*c.diff/c.ref, c.se)
}

// The acceptance criterion, fixed before the first run: the mean paired
// difference is within 3 standard errors of the paired differences and
// within 2 % of the reference's mean.
func (c lawCell) within3SE() bool  { return math.Abs(c.diff) <= 3*c.se }
func (c lawCell) within2Pct() bool { return math.Abs(c.diff) <= 0.02*c.ref }

// lawCompare runs both generators, started from the same periods and
// first-access times, on seeds first … first+n−1.
func lawCompare(t *testing.T, arch *Archetype, first, n int) []lawCell {
	got, want := make([]lawStats, n), make([]lawStats, n)
	for s := range got {
		w := newWL(t, arch, int64(first+s))
		ref := newReference(newWL(t, arch, int64(first+s)))
		got[s] = runLaw(w.Pages(), w.Tick)
		want[s] = runLaw(ref.Pages(), ref.referenceTick)
	}
	cells := make([]lawCell, len(lawStats{}))
	ref, diff := make([]float64, n), make([]float64, n)
	for i := range cells {
		for s := range got {
			ref[s], diff[s] = want[s][i], got[s][i]-want[s][i]
		}
		cells[i] = lawCell{lawName(i), stats.Mean(ref), stats.Mean(diff), stats.Stddev(diff) / math.Sqrt(float64(n))}
	}
	return cells
}

// TestAccessLawMatchesReference is the law test: on every shape the
// repository measures — the six standard archetypes pinned mid-range and
// the 99.5 %-cold store — the sweep and the heap generator show the same
// accesses, distinct pages and writes per tick over 30 ticks (after 12
// warm ones) and the same end-of-run idle census, by lawCell's criterion
// over seeds 1–10. The seeds are fixed, so the test is deterministic.
//
// That is 63 cells at 3 standard errors with 9 degrees of freedom
// (P ≈ 0.015 each), so about one chance excursion is expected per run
// even when the laws are equal. A cell beyond 3 SE is therefore measured
// again on 30 fresh seeds, 11–40, and must meet the whole criterion
// there: a difference in law repeats, a chance excursion does not. The
// 2 % bound has no second try.
func TestAccessLawMatchesReference(t *testing.T) {
	if raceEnabled {
		t.Skip("single-goroutine statistics over ~300M accesses; too slow under the race detector")
	}
	if testing.Short() {
		t.Skip("law test skipped in -short mode")
	}
	shapes := []*Archetype{coldStore}
	for _, a := range Archetypes {
		shapes = append(shapes, pinned(a))
	}
	for _, arch := range shapes {
		t.Run(arch.Name, func(t *testing.T) {
			t.Parallel()
			var fresh []lawCell // seeds 11–40, run only if a cell needs them
			for i, c := range lawCompare(t, arch, 1, 10) {
				t.Logf("seeds 1-10:  %v", c)
				if !c.within2Pct() {
					t.Errorf("%s: mean difference %+.3f is beyond 2 %% of the reference mean %.1f", c.name, c.diff, c.ref)
				}
				if c.within3SE() {
					continue
				}
				if fresh == nil {
					fresh = lawCompare(t, arch, 11, 30)
				}
				again := fresh[i]
				t.Logf("seeds 11-40: %v (seeds 1-10 were beyond 3 SE)", again)
				if !again.within3SE() || !again.within2Pct() {
					t.Errorf("%s: mean difference beyond 3 standard errors on seeds 1-10 (%+.3f, SE %.3f) and not cleared by seeds 11-40 (%+.3f, SE %.3f)",
						c.name, c.diff, c.se, again.diff, again.se)
				}
			}
		})
	}
}

// TestTickEmitsInPageOrder pins the ordering contract reproducibility
// rests on: within one Tick the renewal loop emits page IDs in
// non-decreasing order, so a page's accesses are contiguous. (No standard
// archetype's ScanEvery sweep falls inside the first hour.)
func TestTickEmitsInPageOrder(t *testing.T) {
	for _, arch := range Archetypes {
		w := newWL(t, arch, 6)
		for tick := 1; tick <= 30; tick++ {
			prev, n := mem.PageID(0), 0
			w.Tick(time.Duration(tick)*lawTick, func(id mem.PageID, _ bool) {
				if id < prev {
					t.Fatalf("%s tick %d: page %d emitted after page %d", arch.Name, tick, id, prev)
				}
				prev = id
				n++
			})
			if n < w.Pages()/10 {
				t.Fatalf("%s tick %d: only %d accesses over %d pages; the order check saw almost nothing", arch.Name, tick, n, w.Pages())
			}
		}
	}
}
