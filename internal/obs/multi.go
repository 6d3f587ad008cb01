package obs

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
)

// Observer bundles the metrics registry and tracer for one domain: one
// simulated machine, one tuner run, one fleet generator. Everything hanging
// off an Observer is single-writer (the owning domain), which is what keeps
// instrumented parallel runs byte-identical to serial ones.
//
// A nil *Observer is a valid "observability off" value: every method
// returns nil instruments whose methods are no-ops.
type Observer struct {
	// Process names the domain in exports (Chrome trace process name,
	// Prometheus base labels carry the details).
	Process string
	Reg     *Registry
	Trace   *Tracer
}

// Counter registers a counter on the observer's registry (nil-safe).
func (o *Observer) Counter(name, help string, labels ...Label) *Counter {
	if o == nil {
		return nil
	}
	return o.Reg.Counter(name, help, labels...)
}

// Gauge registers a gauge on the observer's registry (nil-safe).
func (o *Observer) Gauge(name, help string, labels ...Label) *Gauge {
	if o == nil {
		return nil
	}
	return o.Reg.Gauge(name, help, labels...)
}

// CounterFunc registers a read-at-export counter on the observer's
// registry (nil-safe).
func (o *Observer) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	if o == nil {
		return
	}
	o.Reg.CounterFunc(name, help, fn, labels...)
}

// GaugeFunc registers a read-at-export gauge on the observer's registry
// (nil-safe).
func (o *Observer) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	if o == nil {
		return
	}
	o.Reg.GaugeFunc(name, help, fn, labels...)
}

// Histogram registers a histogram on the observer's registry (nil-safe).
func (o *Observer) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	if o == nil {
		return nil
	}
	return o.Reg.Histogram(name, help, buckets, labels...)
}

// Lane registers a trace lane on the observer's tracer (nil-safe, -1 when
// disabled).
func (o *Observer) Lane(name string) int {
	if o == nil {
		return -1
	}
	return o.Trace.Lane(name)
}

// Tracer returns the observer's tracer (nil-safe).
func (o *Observer) Tracer() *Tracer {
	if o == nil {
		return nil
	}
	return o.Trace
}

// Multi owns a set of Observers — typically one per machine plus singletons
// for fleet/tuner domains — and renders them together. Observer creation
// must happen before the run starts (cluster.New, tuner setup); during the
// run the Multi itself is read-only and each Observer is touched only by
// its owner.
type Multi struct {
	base      []Label
	observers []*Observer
}

// NewMulti returns a Multi whose observers all inherit the given base
// labels (e.g. run="baseline").
func NewMulti(base ...Label) *Multi {
	return &Multi{base: base}
}

// Observer creates a new observer named process, with the Multi's base
// labels plus any extra labels on all its series. Nil-safe: a nil Multi
// yields a nil Observer, disabling instrumentation downstream.
func (m *Multi) Observer(process string, labels ...Label) *Observer {
	if m == nil {
		return nil
	}
	all := make([]Label, 0, len(m.base)+len(labels))
	all = append(all, m.base...)
	all = append(all, labels...)
	o := &Observer{
		Process: process,
		Reg:     NewRegistry(all...),
		Trace:   NewTracer(DefaultMaxSpans),
	}
	m.observers = append(m.observers, o)
	return o
}

// Observers returns the created observers in creation order.
func (m *Multi) Observers() []*Observer {
	if m == nil {
		return nil
	}
	return m.observers
}

// Merge returns a Multi that renders the observers of all the given hubs
// in order. Each observer keeps the base labels of the hub that created
// it, so two runs (e.g. run="baseline" and run="faulted") export into one
// file with distinguishable series. Nil hubs are skipped.
func Merge(ms ...*Multi) *Multi {
	out := &Multi{}
	for _, m := range ms {
		if m != nil {
			out.observers = append(out.observers, m.observers...)
		}
	}
	return out
}

// WriteFiles dumps the Prometheus exposition to metricsPath and the Chrome
// trace to tracePath, creating missing parent directories. Either path may
// be empty to skip that export; a nil Multi writes nothing. This is the
// CLI exit hook.
func (m *Multi) WriteFiles(metricsPath, tracePath string) error {
	if m == nil {
		return nil
	}
	write := func(path, what string, render func(*bufio.Writer) error) error {
		if path == "" {
			return nil
		}
		if dir := filepath.Dir(path); dir != "." {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return fmt.Errorf("obs: writing %s to %s: %w", what, path, err)
			}
		}
		f, err := os.Create(path)
		if err != nil {
			return fmt.Errorf("obs: writing %s to %s: %w", what, path, err)
		}
		bw := bufio.NewWriter(f)
		if err := render(bw); err != nil {
			f.Close()
			return fmt.Errorf("obs: writing %s to %s: %w", what, path, err)
		}
		if err := bw.Flush(); err != nil {
			f.Close()
			return fmt.Errorf("obs: writing %s to %s: %w", what, path, err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("obs: writing %s to %s: %w", what, path, err)
		}
		return nil
	}
	if err := write(metricsPath, "metrics", func(w *bufio.Writer) error {
		return m.WritePrometheus(w)
	}); err != nil {
		return err
	}
	return write(tracePath, "trace", func(w *bufio.Writer) error {
		return m.WriteChromeTrace(w)
	})
}
