package workload

import (
	"fmt"
	"math"
	"slices"
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

// referenceSweep is Tick as it was before the per-block bound: one sweep
// of the whole next column, a comparison per page. It is that code
// verbatim; only the name changed. Tick must reproduce it bit for bit —
// same accesses in the same order, same draws, same next column — because
// skipping a block in which nothing is due skips no access and no draw.
func (w *Workload) referenceSweep(now time.Duration, access func(id mem.PageID, write bool)) {
	diurnal, writeFraction := w.DiurnalFactor(now), w.arch.WriteFraction
	rng, periods, next := w.rng, w.periods, w.next
	for i, at := range next {
		if at > now {
			continue
		}
		mean := periods[i] / diurnal
		for at <= now {
			access(mem.PageID(i), rng.Float64() < writeFraction)
			gap := rng.ExpFloat64() * mean
			// Not "gap < 0.5": a NaN gap must also advance the page.
			if !(gap >= 0.5) {
				gap = 0.5
			}
			at += time.Duration(gap * float64(time.Second))
		}
		next[i] = at
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

// tickPair drives Tick and the flat sweep from the same seed through the
// same calls. The reference side grows through the real AddPages: the
// bounds it keeps there are never read.
type tickPair struct {
	w, ref    *Workload
	got, want []access
}

func newTickPair(arch *Archetype, seed int64, start time.Duration) (*tickPair, error) {
	cfg := Config{Archetype: arch, Name: "inst", Seed: seed, Start: start}
	w, err := New(cfg)
	if err != nil {
		return nil, err
	}
	ref, err := New(cfg)
	if err != nil {
		return nil, err
	}
	return &tickPair{w: w, ref: ref}, w.verifyDue()
}

// verifyDue recounts the bounds: one per block, none after the soonest
// next access of its block.
func (w *Workload) verifyDue() error {
	if want := (w.pages + dueBlock - 1) / dueBlock; len(w.due) != want || len(w.next) != w.pages {
		return fmt.Errorf("%d bounds over %d next times for %d pages, want %d", len(w.due), len(w.next), w.pages, want)
	}
	for b, bound := range w.due {
		if soonest := slices.Min(w.next[b*dueBlock : min((b+1)*dueBlock, w.pages)]); bound > soonest {
			return fmt.Errorf("block %d: bound %v is after its soonest access at %v", b, bound, soonest)
		}
	}
	return nil
}

// tick ticks both sides at now and returns the number of accesses.
func (p *tickPair) tick(now time.Duration) (int, error) {
	p.got, p.want = p.got[:0], p.want[:0]
	p.w.Tick(now, func(id mem.PageID, wr bool) { p.got = append(p.got, access{id, wr}) })
	p.ref.referenceSweep(now, func(id mem.PageID, wr bool) { p.want = append(p.want, access{id, wr}) })
	if !slices.Equal(p.got, p.want) {
		i := 0
		for i < len(p.got) && i < len(p.want) && p.got[i] == p.want[i] {
			i++
		}
		return 0, fmt.Errorf("%d accesses, flat sweep %d; first difference at %d", len(p.got), len(p.want), i)
	}
	// Every block that was due has been swept past now and tightened.
	for b, bound := range p.w.due {
		if bound <= now {
			return 0, fmt.Errorf("block %d still due at %v after Tick(%v)", b, bound, now)
		}
	}
	return len(p.got), p.same()
}

// grow adds n pages to both sides.
func (p *tickPair) grow(n int, now time.Duration) error {
	p.w.AddPages(n, now)
	p.ref.AddPages(n, now)
	return p.same()
}

// same compares what the two sides carry into the next call.
func (p *tickPair) same() error {
	if err := p.w.verifyDue(); err != nil {
		return err
	}
	if !slices.Equal(p.w.next, p.ref.next) {
		return fmt.Errorf("next columns differ")
	}
	if p.w.nextScan != p.ref.nextScan || p.w.pages != p.ref.pages {
		return fmt.Errorf("pages/nextScan = %d/%v, flat sweep %d/%v", p.w.pages, p.w.nextScan, p.ref.pages, p.ref.nextScan)
	}
	return nil
}

// sameRNG draws once from both generators: equal only if both consumed
// the same number of draws.
func (p *tickPair) sameRNG() error {
	if a, b := p.w.rng.Int63(), p.ref.rng.Int63(); a != b {
		return fmt.Errorf("next draw %d, flat sweep %d", a, b)
	}
	return nil
}

// irregularNows is a tick schedule with every irregularity a caller can
// produce: the steady scan period, a repeated now, a one-second step, a
// long gap (past ScanEvery, and reaching blocks of cold pages), and a
// return to the steady period.
func irregularNows(start, long time.Duration) []time.Duration {
	now := start
	var nows []time.Duration
	for _, d := range []time.Duration{
		lawTick, lawTick, lawTick, 0, lawTick, time.Second, 0, 0, lawTick,
		long, lawTick, lawTick, 30 * time.Minute, 0, lawTick, lawTick,
	} {
		now += d
		nows = append(nows, now)
	}
	return nows
}

// TestTickMatchesFlatSweep holds Tick to the flat sweep on every shape the
// repository runs and on the block-edge page counts, over an irregular
// schedule with growth that crosses block boundaries.
func TestTickMatchesFlatSweep(t *testing.T) {
	growing := *LogProcessor
	growing.Name, growing.PagesMin, growing.PagesMax, growing.GrowthPerHour = "growing", 3*dueBlock-1, 3*dueBlock-1, 0.5
	shapes := []*Archetype{coldStore, &growing}
	for _, a := range Archetypes {
		// The band shapes at a population that keeps hours of hot pages
		// cheap, and ends inside a block.
		sized := *a
		sized.PagesMin, sized.PagesMax = 200*dueBlock+1, 200*dueBlock+1
		shapes = append(shapes, &sized)
	}
	for _, pages := range []int{1, dueBlock - 1, dueBlock, dueBlock + 1} {
		edge := *BatchAnalytics // hot, lukewarm and cold bands, and a ScanEvery
		edge.Name, edge.PagesMin, edge.PagesMax = fmt.Sprintf("%d-pages", pages), pages, pages
		shapes = append(shapes, &edge)
	}
	for _, arch := range shapes {
		t.Run(arch.Name, func(t *testing.T) {
			t.Parallel()
			start := 7 * time.Minute
			p, err := newTickPair(arch, 11, start)
			if err != nil {
				t.Fatal(err)
			}
			total := 0
			for step, now := range irregularNows(start, max(3*time.Hour, arch.ScanEvery+time.Hour)) {
				// Growth as node.Machine.Step drives it, plus — on the
				// shapes that do not grow by themselves — direct calls
				// that land on, fill and cross a block boundary.
				grown := p.w.GrowthDue(now)
				if grown != p.ref.GrowthDue(now) {
					t.Fatalf("step %d: GrowthDue differs", step)
				}
				if grown == 0 && arch.PagesMax < 100 {
					grown = []int{1, dueBlock - 1, 1, 2*dueBlock + 3}[step%4]
				}
				if grown > 0 {
					if err := p.grow(grown, now); err != nil {
						t.Fatalf("step %d, %d pages added at %v: %v", step, grown, now, err)
					}
				}
				n, err := p.tick(now)
				if err != nil {
					t.Fatalf("step %d, Tick(%v): %v", step, now, err)
				}
				total += n
			}
			// A tick that lands exactly on a bound: that block is due.
			onBound := slices.Min(p.w.due)
			if n, err := p.tick(onBound); err != nil || n == 0 {
				t.Fatalf("Tick(%v), the soonest bound: %d accesses, %v", onBound, n, err)
			}
			if err := p.sameRNG(); err != nil {
				t.Fatal(err)
			}
			if total < p.w.Pages() {
				t.Errorf("only %d accesses over %d pages; the comparison saw almost nothing", total, p.w.Pages())
			}
		})
	}
}

// FuzzTickSequence reads the input as a page count, a band shape and then
// (operation, argument) pairs — advance now and tick, or add pages — and
// holds Tick to the flat sweep after every one of them.
func FuzzTickSequence(f *testing.F) {
	f.Add([]byte{0, 0, 0, 4})                                       // one hot page
	f.Add([]byte{15, 1, 0, 4, 0, 0, 0, 4, 3, 0, 0, 4, 3, 17, 0, 4}) // block+1 pages, repeated now, growth by 1 and 18
	f.Add([]byte{200, 2, 1, 200, 0, 4, 2, 255, 0, 4})               // all cold until a long gap reaches them
	f.Add([]byte{47, 7, 0, 4, 2, 130, 0, 4, 3, 40, 2, 9, 0, 4})     // ScanEvery coming due, growth across blocks
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		data = data[:min(len(data), 2+2*48)]
		pages, shape := 1+int(data[0]), data[1]
		// Periods of 30 s and up keep the longest gap (42 min) under a
		// hundred accesses per page.
		hot := Band{Weight: 1, MinPeriod: 30 * time.Second, MaxPeriod: 3 * time.Minute}
		cold := Band{Weight: 1, MinPeriod: 2 * time.Hour, MaxPeriod: 400 * time.Hour}
		arch := &Archetype{
			Name: "fuzz", PagesMin: pages, PagesMax: pages,
			Bands:         [][]Band{{hot}, {hot, cold}, {cold}, {{0.05, hot.MinPeriod, hot.MaxPeriod}, cold}}[shape%4],
			WriteFraction: 0.3,
		}
		if shape&4 != 0 {
			arch.ScanEvery = 20 * time.Minute
			arch.DiurnalAmplitude = 0.5
		}
		start := time.Duration(shape>>4) * time.Minute
		p, err := newTickPair(arch, int64(shape), start)
		if err != nil {
			t.Fatal(err)
		}
		now := start
		for i := 2; i+2 <= len(data); i += 2 {
			op, arg := data[i], data[i+1]
			switch {
			case op%4 == 3 && p.w.Pages() < 600:
				err = p.grow(1+int(arg)%40, now)
			case op%4 == 2:
				now += time.Duration(arg) * 10 * time.Second
				_, err = p.tick(now)
			default:
				now += time.Duration(arg) * time.Second // 0: the same now again
				_, err = p.tick(now)
			}
			if err != nil {
				t.Fatalf("op %d (%d, %d) at %v: %v", i/2-1, op%4, arg, now, err)
			}
		}
		if err := p.sameRNG(); err != nil {
			t.Fatal(err)
		}
	})
}
