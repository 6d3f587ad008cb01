package par

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// waitGoroutines polls until at most n goroutines run: a worker's Done
// precedes its exit, so the last ones may take a moment.
func waitGoroutines(t *testing.T, n int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > n; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still running, %d before", runtime.NumGoroutine(), n)
		}
	}
}

// spin does a little index-dependent work, so that indices finish out of
// the order they were claimed in.
func spin(i int) int {
	x := i
	for k := 0; k < (i*7919)%200; k++ {
		x = x*31 + k
	}
	return x
}

// TestForRunsEveryIndexOnce: every index runs exactly once, on a worker
// numbered below min(workers, n), through For and through Start.
func TestForRunsEveryIndexOnce(t *testing.T) {
	before := runtime.NumGoroutine()
	for _, n := range []int{0, 1, 2, 5, 100} {
		for _, workers := range []int{-1, 0, 1, 2, 4, 16} {
			limit := max(1, min(workers, n))
			for _, via := range []string{"For", "Start"} {
				counts := make([]atomic.Int32, n)
				var badW atomic.Int32
				fn := func(w, i int) error {
					spin(i)
					if w < 0 || w >= limit {
						badW.Store(int32(w) + 1)
					}
					counts[i].Add(1)
					return nil
				}
				var err error
				if via == "For" {
					err = For(n, workers, fn)
				} else {
					err = Start(n, workers, fn)(false)
				}
				if err != nil {
					t.Fatalf("%s(%d, %d) = %v", via, n, workers, err)
				}
				if w := badW.Load(); w != 0 {
					t.Errorf("%s(%d, %d): worker %d, want below %d", via, n, workers, w-1, limit)
				}
				for i := range counts {
					if c := counts[i].Load(); c != 1 {
						t.Errorf("%s(%d, %d): index %d ran %d times", via, n, workers, i, c)
					}
				}
			}
		}
	}
	waitGoroutines(t, before)
}

// TestOneWorkerRunsOnCaller: with one worker, For and Ordered start no
// goroutine; fn runs on the caller.
func TestOneWorkerRunsOnCaller(t *testing.T) {
	before := runtime.NumGoroutine()
	check := func(what string) {
		if n := runtime.NumGoroutine(); n != before {
			t.Errorf("%s: %d goroutines inside fn, %d before", what, n, before)
		}
	}
	For(10, 1, func(_, _ int) error { check("For"); return nil })
	Ordered(10, 1,
		func(_, i int) int { check("Ordered produce"); return i },
		func(_, _ int) error { check("Ordered consume"); return nil })
}

// TestForReturnsLowestError: whichever workers fail first, For returns
// the error of the lowest failing index, as a serial loop would, and
// leaves no goroutine behind.
func TestForReturnsLowestError(t *testing.T) {
	before := runtime.NumGoroutine()
	const n = 100
	for _, failing := range [][]int{{0}, {n - 1}, {3, 7, 11}, {50, 51}, {20, 90, 99}} {
		fails := map[int]bool{}
		for _, i := range failing {
			fails[i] = true
		}
		for _, workers := range []int{1, 2, 4, 8} {
			for rep := 0; rep < 20; rep++ {
				err := For(n, workers, func(_, i int) error {
					// Later failing indices fail faster, so they tend to
					// be the first errors recorded.
					spin(n - i)
					if fails[i] {
						return fmt.Errorf("index %d", i)
					}
					return nil
				})
				if want := fmt.Sprintf("index %d", failing[0]); err == nil || err.Error() != want {
					t.Fatalf("failing %v, %d workers: For = %v, want %s", failing, workers, err, want)
				}
			}
		}
	}
	waitGoroutines(t, before)
}

// TestForClaimsNothingAfterError: once an index has failed, no worker
// claims a further one. Index 0 fails while the other workers each hold
// one claimed index; they are let go well after the error, and must then
// find nothing left to claim.
func TestForClaimsNothingAfterError(t *testing.T) {
	before := runtime.NumGoroutine()
	const n, workers = 1000, 4
	var started, ran atomic.Int32
	var maxRan atomic.Int32
	hold := make(chan struct{})
	err := For(n, workers, func(_, i int) error {
		ran.Add(1)
		for m := maxRan.Load(); int32(i) > m && !maxRan.CompareAndSwap(m, int32(i)); m = maxRan.Load() {
		}
		if i == 0 {
			for started.Load() < workers-1 {
				runtime.Gosched()
			}
			time.AfterFunc(50*time.Millisecond, func() { close(hold) })
			return errors.New("index 0")
		}
		started.Add(1)
		<-hold
		return nil
	})
	if err == nil || err.Error() != "index 0" {
		t.Fatalf("For = %v, want index 0's error", err)
	}
	if r, m := ran.Load(), maxRan.Load(); r != workers || m != workers-1 {
		t.Errorf("%d indices ran, the highest %d; want only the %d claimed before the error", r, m, workers)
	}
	waitGoroutines(t, before)
}

// TestStartAbandonStartsNothingMore: join(true) claims no further index
// and waits for the ones running; with one worker it runs none.
func TestStartAbandonStartsNothingMore(t *testing.T) {
	before := runtime.NumGoroutine()
	for _, workers := range []int{1, 2, 4} {
		var started atomic.Int32
		hold := make(chan struct{})
		join := Start(1000, workers, func(_, _ int) error {
			started.Add(1)
			<-hold
			return nil
		})
		for started.Load() < int32(workers-1) {
			runtime.Gosched()
		}
		time.AfterFunc(50*time.Millisecond, func() { close(hold) })
		if err := join(true); err != nil {
			t.Fatalf("%d workers: join(true) = %v", workers, err)
		}
		if s := started.Load(); s != int32(workers-1) {
			t.Errorf("%d workers: %d indices started, want the %d running when join(true) was called", workers, s, workers-1)
		}
	}
	waitGoroutines(t, before)
}

// TestOrderedDeliversInOrder: every result is consumed once, in index
// order, with at most 2×workers indices produced or being produced and
// not yet consumed.
func TestOrderedDeliversInOrder(t *testing.T) {
	before := runtime.NumGoroutine()
	const n = 300
	for _, workers := range []int{1, 2, 3, 4, 8} {
		limit := min(workers, n)
		var inFlight, peak atomic.Int32
		var badW atomic.Int32
		next := 0
		err := Ordered(n, workers,
			func(w, i int) int {
				if w < 0 || w >= limit {
					badW.Store(int32(w) + 1)
				}
				f := inFlight.Add(1)
				for p := peak.Load(); f > p && !peak.CompareAndSwap(p, f); p = peak.Load() {
				}
				spin(n - i)
				return i
			},
			func(i int, v int) error {
				if i != next || v != i {
					return fmt.Errorf("consumed (%d, %d), want (%d, %d)", i, v, next, next)
				}
				next++
				inFlight.Add(-1)
				return nil
			})
		if err != nil {
			t.Fatalf("%d workers: %v", workers, err)
		}
		if next != n {
			t.Errorf("%d workers: consumed %d of %d", workers, next, n)
		}
		if w := badW.Load(); w != 0 {
			t.Errorf("%d workers: producer %d, want below %d", workers, w-1, limit)
		}
		if p := peak.Load(); p > int32(2*limit) {
			t.Errorf("%d workers: %d results ahead of delivery, want at most %d", workers, p, 2*limit)
		}
	}
	waitGoroutines(t, before)
}

// TestOrderedStopsAtConsumeError: a consume error at the first, a middle
// or the last index is returned after exactly the indices up to it were
// consumed, with no producer still producing and, soon after, every
// producer gone.
func TestOrderedStopsAtConsumeError(t *testing.T) {
	before := runtime.NumGoroutine()
	const n = 50
	stop := errors.New("stop")
	for _, k := range []int{0, n / 2, n - 1} {
		for _, workers := range []int{1, 2, 4} {
			consumed := 0
			var producing atomic.Int32
			err := Ordered(n, workers,
				func(_, i int) int {
					producing.Add(1)
					defer producing.Add(-1)
					if i > k {
						// Still producing when the error comes.
						time.Sleep(time.Millisecond)
					}
					return i
				},
				func(i int, _ int) error {
					consumed++
					if i == k {
						return stop
					}
					return nil
				})
			if !errors.Is(err, stop) || consumed != k+1 {
				t.Errorf("error at %d, %d workers: Ordered = %v after %d consumed, want stop after %d", k, workers, err, consumed, k+1)
			}
			if p := producing.Load(); p != 0 {
				t.Errorf("error at %d, %d workers: %d producers still producing after Ordered returned", k, workers, p)
			}
			waitGoroutines(t, before)
		}
	}
}

// benchErr keeps BenchmarkFor's calls from being optimized away.
var benchErr error

// BenchmarkFor times one fork–join of For with a trivial fn, one index
// per worker: what handing work to par costs a caller.
func BenchmarkFor(b *testing.B) {
	workers := Workers()
	fn := func(_, _ int) error { return nil }
	b.ReportAllocs()
	for range b.N {
		benchErr = For(workers, workers, fn)
	}
}

// BenchmarkForAfterIdle times how long For's second worker takes to start
// after the caller has run alone for a while, as between a tuning round's
// serial stages: each iteration spins serially for the gap, then runs For
// over two indices on two workers, the caller holding index 0 until the
// helper has claimed index 1. start-ns/op is the mean time from the call
// to the helper's claim, which a fork's useful work has to outweigh.
func BenchmarkForAfterIdle(b *testing.B) {
	for _, gap := range []time.Duration{0, 10 * time.Microsecond, 100 * time.Microsecond, time.Millisecond} {
		b.Run(fmt.Sprintf("gap=%v", gap), func(b *testing.B) {
			var started atomic.Int64
			var total time.Duration
			for range b.N {
				for t0 := time.Now(); time.Since(t0) < gap; {
				}
				started.Store(0)
				call := time.Now()
				benchErr = For(2, 2, func(_, i int) error {
					if i == 1 {
						started.Store(int64(time.Since(call)))
						return nil
					}
					for started.Load() == 0 {
						runtime.Gosched() // with one processor the helper runs only when the caller yields
					}
					return nil
				})
				total += time.Duration(started.Load())
			}
			b.ReportMetric(float64(total.Nanoseconds())/float64(b.N), "start-ns/op")
		})
	}
}
