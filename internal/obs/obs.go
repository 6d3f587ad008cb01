// Package obs is the simulator's observability layer: deterministic,
// allocation-light metrics (counters, gauges, fixed-bucket histograms)
// plus phase/span tracing of simulation steps, with exporters for the
// Prometheus text format and the Chrome trace_event JSON format.
// A counter or gauge either holds what its owner pushes or, registered
// by CounterFunc/GaugeFunc, reads its owner's state when rendered.
//
// Determinism rules (see DESIGN.md "Metrics and tracing"):
//
//   - No wall clock. Every span carries explicit simulated (or logical)
//     timestamps supplied by the caller; the package never reads time.Now.
//   - Stable order. Families render in registration order and series render
//     in creation order, so two runs of the same configuration produce
//     byte-identical exports.
//   - Single-writer instruments. An Observer (and everything registered on
//     it) belongs to exactly one domain — one machine, one tuner, one fleet
//     generator — and is only mutated by that domain's goroutine. This is
//     what keeps an instrumented cluster run independent of worker count: no
//     cross-machine instrument is ever shared.
//   - Observation only. Instruments never feed back into simulation
//     decisions; a nil Observer (and nil instruments) disable everything.
//
// All instrument methods are nil-receiver safe so call sites need no
// "is observability enabled" branches beyond the implicit nil check.
package obs

import (
	"fmt"
	"sort"
)

// Label is one key="value" pair attached to a metric series or a trace
// process.
type Label struct {
	Key   string
	Value string
}

type kind uint8

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "untyped"
}

// family groups every series registered under one metric name.
type family struct {
	name    string
	help    string
	kind    kind
	buckets []float64 // histogram families only; upper bounds, ascending
	series  []*series // creation order
}

// series is one labelled time series. Counters and gauges use value, or
// read fn instead when registered by CounterFunc/GaugeFunc; histograms use
// counts/sum/count.
type series struct {
	labelStr string // pre-rendered {k="v",...} suffix, "" when unlabelled
	value    float64
	fn       func() float64
	counts   []uint64 // len(buckets)+1; last is the +Inf bucket
	sum      float64
	count    uint64
}

// current is a counter's or gauge's value now.
func (s *series) current() float64 {
	if s.fn != nil {
		return s.fn()
	}
	return s.value
}

// Observer is one domain's metrics and tracer: one simulated machine, one
// tuner run, one fleet generator. Its metric families render in
// registration order, and every series carries the observer's base labels
// (e.g. machine="m0007") ahead of its own. Everything on an Observer is
// single-writer (the owning domain), which is what keeps instrumented
// parallel runs byte-identical to serial ones; rendering (via Multi)
// happens after the run.
//
// A nil *Observer is a valid "observability off" value: every method
// returns nil instruments whose methods are no-ops. Multi.Observer makes
// them.
type Observer struct {
	// Process names the domain in exports (Chrome trace process name;
	// the Prometheus base labels carry the details).
	Process string
	Trace   *Tracer

	base     []Label
	families []*family
	byName   map[string]*family
}

func (o *Observer) family(name, help string, k kind, buckets []float64) *family {
	if f, ok := o.byName[name]; ok {
		if f.kind != k {
			panic(fmt.Sprintf("obs: metric %q registered as both %s and %s", name, f.kind, k))
		}
		return f
	}
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	f := &family{name: name, help: help, kind: k, buckets: buckets}
	o.byName[name] = f
	o.families = append(o.families, f)
	return f
}

func (o *Observer) seriesFor(f *family, labels []Label) *series {
	merged := make([]Label, 0, len(o.base)+len(labels))
	merged = append(merged, o.base...)
	merged = append(merged, labels...)
	str := renderLabels(merged)
	for _, s := range f.series {
		if s.labelStr == str {
			return s
		}
	}
	s := &series{labelStr: str}
	if f.kind == kindHistogram {
		s.counts = make([]uint64, len(f.buckets)+1)
	}
	f.series = append(f.series, s)
	return s
}

// Counter registers (or finds) a monotonically increasing series.
func (o *Observer) Counter(name, help string, labels ...Label) *Counter {
	if o == nil {
		return nil
	}
	f := o.family(name, help, kindCounter, nil)
	return &Counter{s: o.seriesFor(f, labels)}
}

// Gauge registers (or finds) a series holding a current value.
func (o *Observer) Gauge(name, help string, labels ...Label) *Gauge {
	if o == nil {
		return nil
	}
	f := o.family(name, help, kindGauge, nil)
	return &Gauge{s: o.seriesFor(f, labels)}
}

// CounterFunc registers a counter series whose value is read by calling fn
// at export, for totals the owning domain already keeps in its own state.
// fn must be monotonic and is called by the renderer, so it must be safe
// wherever the observer is rendered. Re-registering the name with Counter
// returns this series; Add on it has no effect.
func (o *Observer) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	if o == nil {
		return
	}
	o.seriesFor(o.family(name, help, kindCounter, nil), labels).fn = fn
}

// GaugeFunc registers a gauge series whose value is read by calling fn at
// export, on the same terms as CounterFunc.
func (o *Observer) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	if o == nil {
		return
	}
	o.seriesFor(o.family(name, help, kindGauge, nil), labels).fn = fn
}

// Histogram registers (or finds) a fixed-bucket histogram series. Buckets
// are upper bounds and must be strictly ascending; an implicit +Inf bucket
// is always appended. The bucket layout is fixed by the first registration
// of the name on this observer.
func (o *Observer) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	if o == nil {
		return nil
	}
	if len(buckets) == 0 || !sort.Float64sAreSorted(buckets) {
		panic(fmt.Sprintf("obs: histogram %q needs ascending buckets", name))
	}
	b := make([]float64, len(buckets))
	copy(b, buckets)
	f := o.family(name, help, kindHistogram, b)
	return &Histogram{s: o.seriesFor(f, labels), buckets: f.buckets}
}

// Counter is a monotonically increasing metric. All methods are safe on a
// nil receiver (no-ops), so disabled observability costs one branch.
type Counter struct{ s *series }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds v; negative deltas are ignored to preserve monotonicity.
func (c *Counter) Add(v float64) {
	if c == nil || v < 0 {
		return
	}
	c.s.value += v
}

// AddInt adds an integer delta.
func (c *Counter) AddInt(v int) { c.Add(float64(v)) }

// Value returns the current total (0 on nil).
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return c.s.current()
}

// Gauge is a metric holding a current value that may go up or down.
type Gauge struct{ s *series }

// Set replaces the current value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.s.value = v
}

// SetInt replaces the current value with an integer.
func (g *Gauge) SetInt(v int) { g.Set(float64(v)) }

// SetUint64 replaces the current value with a uint64 (e.g. byte counts).
func (g *Gauge) SetUint64(v uint64) { g.Set(float64(v)) }

// Value returns the current value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.s.current()
}

// Histogram is a fixed-bucket cumulative histogram.
type Histogram struct {
	s       *series
	buckets []float64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Linear scan: bucket counts are small (≤ ~16) and branch-predictable,
	// which beats sort.SearchFloat64s at this size.
	i := 0
	for i < len(h.buckets) && v > h.buckets[i] {
		i++
	}
	h.s.counts[i]++
	h.s.sum += v
	h.s.count++
}

// Count returns the number of samples observed (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.s.count
}

// Sum returns the sum of observed samples (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.s.sum
}

func validName(name string) bool {
	if name == "" {
		return false
	}
	for i, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}
