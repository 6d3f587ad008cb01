package chart

import (
	"strings"
	"testing"
)

func linePoints(n int, f func(i int) (float64, float64)) []Point {
	out := make([]Point, n)
	for i := range out {
		x, y := f(i)
		out[i] = Point{X: x, Y: y}
	}
	return out
}

func TestRenderBasics(t *testing.T) {
	s := Series{Name: "cold", Points: linePoints(10, func(i int) (float64, float64) {
		return float64(i), float64(10 - i)
	})}
	out := Render(Config{Title: "test chart", XLabel: "x", YLabel: "y"}, s)
	if !strings.Contains(out, "test chart") {
		t.Error("title missing")
	}
	if !strings.Contains(out, "*") {
		t.Error("no markers plotted")
	}
	if !strings.Contains(out, "x: x   y: y") {
		t.Error("axis labels missing")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) < 13 {
		t.Errorf("only %d lines rendered", len(lines))
	}
}

func TestRenderMultiSeriesLegend(t *testing.T) {
	a := Series{Name: "before", Points: linePoints(5, func(i int) (float64, float64) { return float64(i), 1 })}
	b := Series{Name: "after", Points: linePoints(5, func(i int) (float64, float64) { return float64(i), 2 })}
	out := Render(Config{}, a, b)
	if !strings.Contains(out, "* before") || !strings.Contains(out, "o after") {
		t.Errorf("legend missing:\n%s", out)
	}
}

func TestRenderEmpty(t *testing.T) {
	out := Render(Config{Title: "empty"})
	if !strings.Contains(out, "(no data)") {
		t.Error("empty chart should say so")
	}
}

func TestRenderLogX(t *testing.T) {
	// Log spacing must keep geometrically spaced points roughly evenly
	// separated; in particular nothing panics and nonpositive x is
	// skipped.
	s := Series{Points: []Point{{X: 0, Y: 1}, {X: 120, Y: 1}, {X: 1200, Y: 2}, {X: 30600, Y: 3}}}
	out := Render(Config{LogX: true}, s)
	if strings.Count(out, "*") != 3 {
		t.Errorf("want 3 plotted markers (x=0 dropped):\n%s", out)
	}
}

func TestRenderConstantSeries(t *testing.T) {
	s := Series{Points: linePoints(4, func(i int) (float64, float64) { return float64(i), 5 })}
	out := Render(Config{}, s) // degenerate y range must not divide by zero
	if !strings.Contains(out, "*") {
		t.Error("constant series not plotted")
	}
}

func TestRenderFixedYRange(t *testing.T) {
	s := Series{Points: linePoints(3, func(i int) (float64, float64) { return float64(i), 0.5 })}
	out := Render(Config{YMin: 0, YMax: 1}, s)
	if !strings.Contains(out, "1.0") || !strings.Contains(out, "0") {
		t.Errorf("y-axis labels missing:\n%s", out)
	}
}

func TestTrimNum(t *testing.T) {
	cases := map[float64]string{
		0:      "0",
		0.123:  "0.123",
		1.5:    "1.5",
		123.45: "123",
	}
	for v, want := range cases {
		if got := trimNum(v); got != want {
			t.Errorf("trimNum(%v) = %q, want %q", v, got, want)
		}
	}
}
