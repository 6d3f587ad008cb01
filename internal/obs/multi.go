package obs

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"slices"
)

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
	o := &Observer{
		Process: process,
		Trace:   NewTracer(DefaultMaxSpans),
		base:    append(slices.Clip(m.base), labels...),
		byName:  make(map[string]*family),
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
