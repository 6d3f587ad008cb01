// Package par is the repository's one worker pool: it fans independent,
// indexed work out over a bounded number of goroutines. Workers claim
// indices in increasing order from one counter, so whatever a caller
// writes at position i is the same on any number of workers; a worker's
// number w lets it own scratch state across the indices it claims. One
// worker runs everything on the caller.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers is the worker count of every pool: runtime.GOMAXPROCS(0), read
// when it is called, so a test or a sweep that sets GOMAXPROCS sets it.
func Workers() int { return runtime.GOMAXPROCS(0) }

// For calls fn(w, i) once for every i in [0, n) on min(workers, n)
// workers, the caller being worker 0, and returns when all have finished.
// Workers claim indices in increasing order; after the first error no
// index is claimed, and For returns the error of the lowest failing index,
// which is the error a serial loop would return. A panic in fn is not
// recovered. For is Start followed by join(false).
func For(n, workers int, fn func(w, i int) error) error {
	return Start(n, workers, fn)(false)
}

// Start is For split in two: it starts workers 1 to min(workers, n)−1 on
// the indices and returns a join, which the caller calls once.
// join(false) makes the caller worker 0 and returns what For returns once
// every index has run; join(true) abandons the rest, claiming no further
// index, and returns once the started workers have, with the error of the
// lowest failing index among those that ran. With one worker nothing
// starts before join(false), which runs every index on the caller.
func Start(n, workers int, fn func(w, i int) error) (join func(abandon bool) error) {
	p := &pool{n: n, fn: fn, failed: n}
	for w := 1; w < min(workers, n); w++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			p.work(w)
		}()
	}
	return func(abandon bool) error {
		if abandon {
			p.stop()
		} else {
			p.work(0)
		}
		p.wg.Wait()
		return p.err
	}
}

// pool is the shared state of one Start.
type pool struct {
	n      int
	fn     func(w, i int) error
	next   atomic.Int64 // the next index to claim
	wg     sync.WaitGroup
	mu     sync.Mutex
	failed int // the lowest failing index so far, n if none
	err    error
}

// work runs fn on claimed indices until none is left.
func (p *pool) work(w int) {
	for i := int(p.next.Add(1)) - 1; i < p.n; i = int(p.next.Add(1)) - 1 {
		if err := p.fn(w, i); err != nil {
			p.stop()
			p.mu.Lock()
			if i < p.failed {
				p.failed, p.err = i, err
			}
			p.mu.Unlock()
		}
	}
}

// stop makes every later claim come out past the end.
func (p *pool) stop() { p.next.Store(int64(p.n)) }

// Ordered calls produce(w, i) for every i in [0, n) on min(workers, n)
// workers and consume(i, v) on the caller with each result in index
// order. Producers run ahead of delivery by at most 2×workers indices,
// the one being consumed included: index i is claimed only once i−2×workers
// has been consumed. A consume error stops production and is returned once
// no producer is left running. With one worker each index is produced and
// consumed on the caller in turn. A panic in produce or consume is not
// recovered.
func Ordered[T any](n, workers int, produce func(w, i int) T, consume func(i int, v T) error) error {
	if workers = min(workers, n); workers <= 1 {
		for i := range n {
			if err := consume(i, produce(0, i)); err != nil {
				return err
			}
		}
		return nil
	}
	// Each claim holds one of ahead tokens until its index is consumed, so
	// the indices in flight span fewer than ahead and each ring slot holds
	// at most one of them.
	ahead := 2 * workers
	ring := make([]chan T, ahead)
	tokens := make(chan struct{}, ahead)
	for i := range ring {
		ring[i] = make(chan T, 1)
		tokens <- struct{}{}
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := range workers {
		go func() {
			defer wg.Done()
			for range tokens {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				ring[i%ahead] <- produce(w, i)
			}
		}()
	}
	defer func() {
		next.Store(int64(n)) // claim nothing more
		close(tokens)
		wg.Wait()
	}()
	for i := range n {
		if err := consume(i, <-ring[i%ahead]); err != nil {
			return err
		}
		tokens <- struct{}{}
	}
	return nil
}
