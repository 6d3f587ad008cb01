package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// spanRef names a recorded span; noSpan is "no parent" and what a disabled
// tracer hands out.
type spanRef int32

const noSpan spanRef = -1

// Lanes are the harness goroutines spans are recorded on (Chrome trace
// thread ids). Load workers use laneWorker0+k.
const (
	laneMain = iota
	laneTicker
	laneWorker0
)

// span is one timed call from the harness into a layer.
type span struct {
	name   string
	lane   int   // harness goroutine that made the call (Chrome tid)
	id     int64 // shared by every span of one campaign / round / episode
	parent spanRef
	start  time.Duration // since tracer start
	end    time.Duration
}

// tracer records spans and boundary counts in memory; nothing is written
// until the run ends. It is switched on and off between episodes only, so
// the hot-path check of on needs no lock.
type tracer struct {
	on bool
	t0 time.Time

	mu     sync.Mutex
	spans  []span
	counts map[string]int64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), counts: make(map[string]int64)}
}

// begin opens a span. With tracing off it costs one branch.
func (t *tracer) begin(name string, lane int, id int64, parent spanRef) spanRef {
	if !t.on {
		return noSpan
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans = append(t.spans, span{name: name, lane: lane, id: id, parent: parent, start: now, end: -1})
	r := spanRef(len(t.spans) - 1)
	t.mu.Unlock()
	return r
}

func (t *tracer) end(r spanRef) {
	if r == noSpan {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[r].end = now
	t.mu.Unlock()
}

// count adds n to a named counter taken at the same boundary as a span.
func (t *tracer) count(name string, n int64) {
	if !t.on {
		return
	}
	t.mu.Lock()
	t.counts[name] += n
	t.mu.Unlock()
}

// max raises a named high-water mark to v.
func (t *tracer) max(name string, v int64) {
	if !t.on {
		return
	}
	t.mu.Lock()
	if v > t.counts[name] {
		t.counts[name] = v
	}
	t.mu.Unlock()
}

// rename relabels a span once the call it wraps has said what it did.
func (t *tracer) rename(r spanRef, name string) {
	if r == noSpan {
		return
	}
	t.mu.Lock()
	t.spans[r].name = name
	t.mu.Unlock()
}

// durations returns every finished span of the given name, in record order.
func (t *tracer) durations(name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for i := range t.spans {
		if s := &t.spans[i]; s.name == name && s.end >= 0 {
			out = append(out, s.end-s.start)
		}
	}
	return out
}

// spanStats is one row of the traced run's per-call table.
type spanStats struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
	P50Us   float64 `json:"p50_us"`
	TailP   float64 `json:"tail_p,omitempty"`
	TailUs  float64 `json:"tail_us,omitempty"`
}

// stats aggregates spans by name. Self time is a span's duration minus the
// part of it covered by its children; children on other lanes may overlap
// each other, so their intervals are merged before subtracting.
func (t *tracer) stats() []spanStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[spanRef][]spanRef)
	for i := range t.spans {
		if p := t.spans[i].parent; p != noSpan {
			children[p] = append(children[p], spanRef(i))
		}
	}
	type agg struct {
		total, self time.Duration
		durs        []float64
	}
	byName := make(map[string]*agg)
	var names []string
	for i := range t.spans {
		s := &t.spans[i]
		if s.end < 0 {
			continue
		}
		a := byName[s.name]
		if a == nil {
			a = &agg{}
			byName[s.name] = a
			names = append(names, s.name)
		}
		d := s.end - s.start
		a.total += d
		a.self += d - t.coveredLocked(s, children[spanRef(i)])
		a.durs = append(a.durs, float64(d)/float64(time.Microsecond))
	}
	sort.Strings(names)
	out := make([]spanStats, 0, len(names))
	for _, n := range names {
		a := byName[n]
		sm := summarize(a.durs)
		out = append(out, spanStats{
			Name: n, Count: sm.N,
			TotalMs: float64(a.total) / float64(time.Millisecond),
			SelfMs:  float64(a.self) / float64(time.Millisecond),
			P50Us:   sm.P50, TailP: sm.TailP, TailUs: sm.Tail,
		})
	}
	return out
}

// coveredLocked returns how much of parent's interval its children cover.
func (t *tracer) coveredLocked(parent *span, kids []spanRef) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		c := &t.spans[k]
		if c.end < 0 {
			continue
		}
		a, b := c.start, c.end
		if a < parent.start {
			a = parent.start
		}
		if b > parent.end {
			b = parent.end
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered, hi time.Duration
	hi = -1
	for _, v := range ivs {
		if v.a > hi {
			covered += v.b - v.a
			hi = v.b
		} else if v.b > hi {
			covered += v.b - hi
			hi = v.b
		}
	}
	return covered
}

// writeChrome writes the spans as Chrome trace_event JSON ("X" complete
// events, microsecond timestamps) plus the boundary counts as one
// metadata-style instant event, readable by chrome://tracing and Perfetto.
func (t *tracer) writeChrome(w io.Writer) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	bw := bufio.NewWriter(w)
	fmt.Fprint(bw, `{"displayTimeUnit":"ms","traceEvents":[`)
	first := true
	for i := range t.spans {
		s := &t.spans[i]
		if s.end < 0 {
			continue
		}
		if !first {
			bw.WriteByte(',')
		}
		first = false
		name, _ := json.Marshal(s.name)
		fmt.Fprintf(bw, "\n"+`{"name":%s,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"span":%d,"parent":%d,"id":%d}}`,
			name, s.lane, float64(s.start)/1e3, float64(s.end-s.start)/1e3, i, s.parent, s.id)
	}
	if len(t.counts) > 0 {
		counts, err := json.Marshal(t.counts)
		if err != nil {
			return err
		}
		if !first {
			bw.WriteByte(',')
		}
		fmt.Fprintf(bw, "\n"+`{"name":"counts","ph":"i","s":"g","pid":1,"tid":0,"ts":0,"args":%s}`, counts)
	}
	fmt.Fprint(bw, "\n]}\n")
	return bw.Flush()
}
