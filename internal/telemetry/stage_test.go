package telemetry

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"sdfm/internal/histogram"
)

// script drives a collector as one machine's agent would over four
// intervals: two jobs, each recording that interval's promotions.
func script(c *Collector, machine string) error {
	census := histogram.New(histogram.DefaultScanPeriod)
	census.Add(0, 60)
	census.Add(7, 40)
	a, b := JobKey{"c", machine, "a"}, JobKey{"c", machine, "b"}
	for i := 1; i <= 4; i++ {
		now := time.Duration(i) * 5 * time.Minute
		pa := histogram.New(histogram.DefaultScanPeriod)
		pa.Add(7, 5)
		pb := histogram.New(histogram.DefaultScanPeriod)
		pb.Add(2, uint64(i))
		for _, r := range []struct {
			key   JobKey
			promo *histogram.Histogram
		}{{a, pa}, {b, pb}} {
			if err := c.Record(r.key, now, 5, r.promo, census, 60); err != nil {
				return err
			}
		}
	}
	return nil
}

// TestStageMatchesPlainCollector: a collector's stages, one per machine,
// held and flushed in machine order, leave in the sink exactly what one
// plain collector fed the same calls machine by machine leaves.
func TestStageMatchesPlainCollector(t *testing.T) {
	machines := []string{"m0000", "m0001", "m0002"}
	plainTrace := NewTrace()
	plain := NewCollector(plainTrace)
	for _, m := range machines {
		if err := script(plain, m); err != nil {
			t.Fatal(err)
		}
	}

	stagedTrace := NewTrace()
	parent := NewCollector(stagedTrace)
	var flushes []func() error
	errs := make([]error, len(machines))
	var wg sync.WaitGroup
	for i, m := range machines {
		s := parent.Stage()
		flushes = append(flushes, s.Hold())
		wg.Add(1)
		go func() { // the machines record at once
			defer wg.Done()
			errs[i] = script(s, m)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	if stagedTrace.Len() != 0 {
		t.Fatalf("%d entries reached the sink while every stage was held", stagedTrace.Len())
	}
	for _, flush := range flushes {
		if err := flush(); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(stagedTrace.Entries, plainTrace.Entries) {
		t.Fatalf("staged trace differs from the plain collector's:\nstaged: %+v\nplain:  %+v", stagedTrace.Entries, plainTrace.Entries)
	}

	// A second flush appends nothing.
	for _, flush := range flushes {
		if err := flush(); err != nil {
			t.Fatal(err)
		}
	}
	if stagedTrace.Len() != plainTrace.Len() {
		t.Fatalf("second flush changed the result: %d entries, want %d", stagedTrace.Len(), plainTrace.Len())
	}
}

// TestStagePassesThroughUnlessHeld: outside Hold a stage is a window onto
// its parent's sink, so a machine stepped on its own exports as it always
// did; the flush ends the hold.
func TestStagePassesThroughUnlessHeld(t *testing.T) {
	tr := NewTrace()
	s := NewCollector(tr).Stage()
	key := JobKey{"c", "m", "j"}
	census := histogram.New(histogram.DefaultScanPeriod)
	census.Add(0, 10)
	promo := histogram.New(histogram.DefaultScanPeriod)
	promo.Add(3, 1)
	record := func(i int) {
		t.Helper()
		if err := s.Record(key, time.Duration(i)*5*time.Minute, 5, promo, census, 10); err != nil {
			t.Fatal(err)
		}
	}
	record(1)
	if tr.Len() != 1 {
		t.Fatalf("unheld stage kept its entry back: sink has %d", tr.Len())
	}
	flush := s.Hold()
	record(2)
	record(3)
	if tr.Len() != 1 {
		t.Fatalf("held stage let an entry through: sink has %d", tr.Len())
	}
	if err := flush(); err != nil {
		t.Fatal(err)
	}
	record(4)
	if tr.Len() != 4 {
		t.Fatalf("sink has %d entries, want 4", tr.Len())
	}
	for i, e := range tr.Entries {
		if want := int64(i+1) * 300; e.TimestampSec != want {
			t.Fatalf("entry %d closed at %ds, want %ds: order lost", i, e.TimestampSec, want)
		}
	}
}

// refusingSink fails every Append after the first `room`.
type refusingSink struct {
	room int
	got  []Entry
}

var errSinkFull = errors.New("sink full")

func (s *refusingSink) Append(e Entry) error {
	if len(s.got) == s.room {
		return fmt.Errorf("append %s: %w", e.Key, errSinkFull)
	}
	s.got = append(s.got, e)
	return nil
}

// TestStageFlushReportsSinkError: while held, Record cannot see the sink
// fail; the flush does, returns the error, and leaves nothing behind for
// a later flush to resend.
func TestStageFlushReportsSinkError(t *testing.T) {
	sink := &refusingSink{room: 2}
	s := NewCollector(sink).Stage()
	flush := s.Hold()
	if err := script(s, "m0000"); err != nil { // eight entries, none refused yet
		t.Fatal(err)
	}
	if err := flush(); !errors.Is(err, errSinkFull) {
		t.Fatalf("flush returned %v, want the sink's error", err)
	}
	if len(sink.got) != 2 {
		t.Fatalf("sink took %d entries, want 2", len(sink.got))
	}
	sink.room = 100
	if err := flush(); err != nil || len(sink.got) != 2 {
		t.Fatalf("second flush: err %v, sink has %d entries, want nil and 2", err, len(sink.got))
	}
}
