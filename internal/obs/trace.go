package obs

import "time"

// DefaultMaxSpans bounds the per-tracer span buffer. At roughly 40 bytes a
// span this caps a tracer near 10 MiB; beyond the cap spans are counted as
// dropped rather than grown, keeping long runs allocation-bounded.
const DefaultMaxSpans = 1 << 18

// Span is one completed phase of work on a lane, with explicit simulated
// (or logical) start time and duration. The tracer never consults the wall
// clock.
type Span struct {
	Lane  int
	Name  string
	Start time.Duration
	Dur   time.Duration
}

// Tracer records phase spans for one domain (one machine, one tuner run).
// Like its Observer it is single-writer: only the owning domain's
// goroutine may call Lane or Emit. All methods are nil-receiver safe.
type Tracer struct {
	lanes   []string
	laneIdx map[string]int
	spans   []Span
	max     int
	dropped uint64
}

// NewTracer returns a tracer that keeps at most maxSpans spans;
// maxSpans <= 0 selects DefaultMaxSpans.
func NewTracer(maxSpans int) *Tracer {
	if maxSpans <= 0 {
		maxSpans = DefaultMaxSpans
	}
	return &Tracer{laneIdx: make(map[string]int), max: maxSpans}
}

// Lane finds or registers a named lane (a Chrome trace "thread") and
// returns its stable index. Returns -1 on a nil tracer.
func (t *Tracer) Lane(name string) int {
	if t == nil {
		return -1
	}
	if i, ok := t.laneIdx[name]; ok {
		return i
	}
	i := len(t.lanes)
	t.lanes = append(t.lanes, name)
	t.laneIdx[name] = i
	return i
}

// Emit records one completed span. Spans past the cap are dropped and
// counted; emission order is preserved, so exports are deterministic.
func (t *Tracer) Emit(lane int, name string, start, dur time.Duration) {
	if t == nil || lane < 0 {
		return
	}
	if len(t.spans) >= t.max {
		t.dropped++
		return
	}
	t.spans = append(t.spans, Span{Lane: lane, Name: name, Start: start, Dur: dur})
}

// Spans returns the recorded spans in emission order (nil on nil tracer).
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	return t.spans
}

// Lanes returns the registered lane names in registration order.
func (t *Tracer) Lanes() []string {
	if t == nil {
		return nil
	}
	return t.lanes
}

// Dropped returns how many spans were discarded at the cap.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.dropped
}
