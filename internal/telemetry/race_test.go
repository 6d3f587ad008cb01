package telemetry

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"sdfm/internal/histogram"
)

// TestCollectorConcurrentRecord hammers one shared collector from many
// goroutines — concurrent Record on distinct jobs — and asserts nothing is
// lost or mixed up. Run under -race (the CI race job includes this
// package) it also proves the collector's locking: before the mutex,
// concurrent Record calls raced on the shared sink.
func TestCollectorConcurrentRecord(t *testing.T) {
	const (
		goroutines = 8
		intervals  = 50
	)
	trace := NewTrace()
	c := NewCollector(trace)

	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			key := JobKey{Cluster: "c", Machine: "m", Job: fmt.Sprintf("job-%d", g)}
			promo := histogram.New(histogram.DefaultScanPeriod)
			promo.Add(10, uint64(g+1)) // the same promotions every interval
			census := histogram.New(histogram.DefaultScanPeriod)
			census.Add(10, 1000)
			for i := 1; i <= intervals; i++ {
				now := time.Duration(i) * 5 * time.Minute
				if err := c.Record(key, now, 5, promo, census, 1000); err != nil {
					errs <- fmt.Errorf("goroutine %d interval %d: %w", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got, want := trace.Len(), goroutines*intervals; got != want {
		t.Errorf("trace has %d entries after concurrent collection, want %d", got, want)
	}
	// Every entry carries its own goroutine's promotions.
	for _, e := range trace.Entries {
		var g int
		if _, err := fmt.Sscanf(e.Key.Job, "job-%d", &g); err != nil {
			t.Fatalf("unexpected job key %q", e.Key.Job)
		}
		if e.PromoTails[0] != uint64(g+1) {
			t.Fatalf("entry %s at t=%ds has promo delta %d, want %d",
				e.Key, e.TimestampSec, e.PromoTails[0], g+1)
		}
	}
}
