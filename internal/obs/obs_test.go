package obs

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestNilSafety(t *testing.T) {
	var o *Observer
	c := o.Counter("x_total", "h")
	g := o.Gauge("x", "h")
	h := o.Histogram("x_seconds", "h", []float64{1})
	c.Inc()
	c.Add(3)
	g.Set(5)
	h.Observe(2)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil instruments must be inert")
	}
	if o.Lane("scan") != -1 {
		t.Fatal("nil observer lane must be -1")
	}
	o.Tracer().Emit(0, "x", 0, 0)
	var m *Multi
	if m.Observer("p") != nil {
		t.Fatal("nil Multi must yield nil Observer")
	}
	if err := m.WritePrometheus(nil); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteChromeTrace(nil); err != nil {
		t.Fatal(err)
	}
}

func TestRegistryFindOrCreate(t *testing.T) {
	r := NewMulti().Observer("p", Label{"machine", "m0"})
	a := r.Counter("sdfm_test_total", "help")
	b := r.Counter("sdfm_test_total", "help")
	a.Inc()
	b.Inc()
	if a.Value() != 2 {
		t.Fatalf("same name+labels must share a series: got %v", a.Value())
	}
	c := r.Counter("sdfm_test_total", "help", Label{"tier", "1"})
	c.Inc()
	if a.Value() != 2 || c.Value() != 1 {
		t.Fatal("distinct labels must get distinct series")
	}
}

// TestFuncSeriesReadAtExport: a CounterFunc/GaugeFunc series renders what
// its function returns when rendered, re-registering the name reads it
// back, and a nil observer ignores the registration.
func TestFuncSeriesReadAtExport(t *testing.T) {
	var nilObs *Observer
	nilObs.CounterFunc("x_total", "h", func() float64 { return 1 })
	nilObs.GaugeFunc("x", "h", func() float64 { return 1 })

	m := NewMulti(Label{"run", "r"})
	o := m.Observer("p")
	stored, held := 3, 7.5
	o.CounterFunc("sdfm_stored_total", "Stored.", func() float64 { return float64(stored) }, Label{"tier", "a"})
	o.GaugeFunc("sdfm_held", "Held.", func() float64 { return held })
	stored, held = 5, 2.5

	c := o.Counter("sdfm_stored_total", "Stored.", Label{"tier", "a"})
	c.Add(100) // no effect on a read-at-export series
	if c.Value() != 5 || o.Gauge("sdfm_held", "Held.").Value() != 2.5 {
		t.Fatalf("read-back: counter %v gauge %v, want 5 and 2.5", c.Value(), o.Gauge("sdfm_held", "Held.").Value())
	}
	var sb strings.Builder
	if err := m.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# HELP sdfm_stored_total Stored.
# TYPE sdfm_stored_total counter
sdfm_stored_total{run="r",tier="a"} 5
# HELP sdfm_held Held.
# TYPE sdfm_held gauge
sdfm_held{run="r"} 2.5
`
	if sb.String() != want {
		t.Fatalf("export:\n%s\nwant:\n%s", sb.String(), want)
	}
}

func TestRegistryPanicsOnAbuse(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	r := NewMulti().Observer("p")
	r.Counter("dual_total", "h")
	expectPanic("kind clash", func() { r.Gauge("dual_total", "h") })
	expectPanic("bad name", func() { r.Counter("bad name", "h") })
	expectPanic("leading digit", func() { r.Counter("0bad", "h") })
	expectPanic("unsorted buckets", func() { r.Histogram("h_x", "h", []float64{2, 1}) })
}

func TestPrometheusOutputStable(t *testing.T) {
	render := func() string {
		m := NewMulti(Label{"run", "r1"})
		o1 := m.Observer("m0000", Label{"machine", "m0000"})
		o2 := m.Observer("m0001", Label{"machine", "m0001"})
		for _, o := range []*Observer{o1, o2} {
			o.Counter("sdfm_steps_total", "Simulation steps.").AddInt(7)
			o.Gauge("sdfm_resident_bytes", "Resident bytes.").SetUint64(4096)
			h := o.Histogram("sdfm_lat_us", "Latency.", []float64{1, 10, 100})
			h.Observe(0.5)
			h.Observe(50)
			h.Observe(5000)
		}
		var sb strings.Builder
		if err := m.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	out := render()
	if out != render() {
		t.Fatal("Prometheus output not byte-stable across identical runs")
	}
	for _, want := range []string{
		"# HELP sdfm_steps_total Simulation steps.\n# TYPE sdfm_steps_total counter\n",
		`sdfm_steps_total{run="r1",machine="m0000"} 7`,
		`sdfm_steps_total{run="r1",machine="m0001"} 7`,
		"# TYPE sdfm_resident_bytes gauge",
		`sdfm_resident_bytes{run="r1",machine="m0000"} 4096`,
		"# TYPE sdfm_lat_us histogram",
		`sdfm_lat_us_bucket{run="r1",machine="m0000",le="1"} 1`,
		`sdfm_lat_us_bucket{run="r1",machine="m0000",le="100"} 2`,
		`sdfm_lat_us_bucket{run="r1",machine="m0000",le="+Inf"} 3`,
		`sdfm_lat_us_sum{run="r1",machine="m0000"} 5050.5`,
		`sdfm_lat_us_count{run="r1",machine="m0000"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q\n---\n%s", want, out)
		}
	}
	// One header per family even when two observers carry the series.
	if n := strings.Count(out, "# TYPE sdfm_steps_total"); n != 1 {
		t.Errorf("family header emitted %d times, want 1", n)
	}
}

func TestPrometheusEscaping(t *testing.T) {
	m := NewMulti()
	o := m.Observer("p")
	o.Counter("esc_total", "line1\nline2 with \\slash", Label{"v", "a\"b\\c\nd"}).Inc()
	var sb strings.Builder
	if err := m.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, `# HELP esc_total line1\nline2 with \\slash`) {
		t.Errorf("help not escaped: %s", out)
	}
	if !strings.Contains(out, `esc_total{v="a\"b\\c\nd"} 1`) {
		t.Errorf("label value not escaped: %s", out)
	}
}

func TestTracerCapAndLanes(t *testing.T) {
	tr := NewTracer(3)
	scan := tr.Lane("scan")
	if tr.Lane("scan") != scan {
		t.Fatal("lane registration not idempotent")
	}
	reclaim := tr.Lane("reclaim")
	if scan == reclaim {
		t.Fatal("distinct lanes share an index")
	}
	for i := 0; i < 5; i++ {
		tr.Emit(scan, "s", time.Duration(i)*time.Second, time.Millisecond)
	}
	if len(tr.Spans()) != 3 {
		t.Fatalf("cap not enforced: %d spans", len(tr.Spans()))
	}
	if tr.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2", tr.Dropped())
	}
}

func TestChromeTraceValidJSON(t *testing.T) {
	m := NewMulti()
	o := m.Observer(`ma"chine`)
	scan := o.Lane("scan")
	rec := o.Lane("reclaim")
	o.Trace.Emit(scan, "scan", 2*time.Minute, 1500*time.Microsecond)
	o.Trace.Emit(rec, "reclaim", 2*time.Minute+time.Millisecond, 2500*time.Nanosecond)
	var sb strings.Builder
	if err := m.WriteChromeTrace(&sb); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Pid  int               `json:"pid"`
			Tid  int               `json:"tid"`
			Ts   float64           `json:"ts"`
			Dur  float64           `json:"dur"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, sb.String())
	}
	if len(doc.TraceEvents) != 5 {
		t.Fatalf("got %d events, want 5 (1 process + 2 threads + 2 spans)", len(doc.TraceEvents))
	}
	if doc.TraceEvents[0].Ph != "M" || doc.TraceEvents[0].Args["name"] != `ma"chine` {
		t.Errorf("process metadata wrong: %+v", doc.TraceEvents[0])
	}
	span := doc.TraceEvents[3]
	if span.Ph != "X" || span.Name != "scan" || span.Ts != 120e6 || span.Dur != 1500 {
		t.Errorf("span event wrong: %+v", span)
	}
	if frac := doc.TraceEvents[4].Dur; frac != 2.5 {
		t.Errorf("sub-microsecond dur = %v, want 2.5", frac)
	}
}

func TestHistogramBucketing(t *testing.T) {
	r := NewMulti().Observer("p")
	h := r.Histogram("b_x", "h", []float64{10, 20})
	for _, v := range []float64{5, 10, 15, 25} {
		h.Observe(v)
	}
	s := h.s
	if s.counts[0] != 2 || s.counts[1] != 1 || s.counts[2] != 1 {
		t.Fatalf("counts = %v (le-10, le-20, +Inf)", s.counts)
	}
	if h.Count() != 4 || h.Sum() != 55 {
		t.Fatalf("count=%d sum=%v", h.Count(), h.Sum())
	}
}

func TestGaugeAndCounterSemantics(t *testing.T) {
	r := NewMulti().Observer("p")
	c := r.Counter("c_total", "h")
	c.Add(-5) // ignored: counters are monotonic
	c.Add(2)
	if c.Value() != 2 {
		t.Fatalf("counter = %v", c.Value())
	}
	g := r.Gauge("g", "h")
	g.Set(10)
	g.SetInt(7)
	if g.Value() != 7 {
		t.Fatalf("gauge = %v", g.Value())
	}
}
