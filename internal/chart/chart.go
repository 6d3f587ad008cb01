// Package chart renders small ASCII line charts for the command-line
// tools, so figure-shaped results (curves, CDFs, timelines) can be
// eyeballed directly in a terminal next to the paper's plots.
package chart

import (
	"fmt"
	"math"
	"strings"
)

// Series is one named line on a chart.
type Series struct {
	Name   string
	Points []Point
}

// Point is an (x, y) sample.
type Point struct{ X, Y float64 }

// Config controls rendering.
type Config struct {
	Title string
	// XLabel / YLabel annotate the axes.
	XLabel, YLabel string
	// YMin/YMax fix the y range; when both zero the range is computed
	// from the data.
	YMin, YMax float64
	// LogX spaces the x axis logarithmically (thresholds span 120 s to
	// 8.5 h).
	LogX bool
}

// The plot is width columns by height rows.
const width, height = 60, 12

var markers = []byte{'*', 'o', '+', 'x', '#', '@'}

// Render draws the series into a multi-line string.
func Render(cfg Config, series ...Series) string {
	w, h := width, height
	// Collect ranges.
	xmin, xmax := math.Inf(1), math.Inf(-1)
	ymin, ymax := math.Inf(1), math.Inf(-1)
	n := 0
	for _, s := range series {
		for _, p := range s.Points {
			x := p.X
			if cfg.LogX {
				if x <= 0 {
					continue
				}
				x = math.Log(x)
			}
			if x < xmin {
				xmin = x
			}
			if x > xmax {
				xmax = x
			}
			if p.Y < ymin {
				ymin = p.Y
			}
			if p.Y > ymax {
				ymax = p.Y
			}
			n++
		}
	}
	if n == 0 {
		return cfg.Title + "\n(no data)\n"
	}
	if cfg.YMin != 0 || cfg.YMax != 0 {
		ymin, ymax = cfg.YMin, cfg.YMax
	}
	if ymax == ymin {
		ymax = ymin + 1
	}
	if xmax == xmin {
		xmax = xmin + 1
	}

	grid := make([][]byte, h)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", w))
	}
	for si, s := range series {
		marker := markers[si%len(markers)]
		for _, p := range s.Points {
			x := p.X
			if cfg.LogX {
				if x <= 0 {
					continue
				}
				x = math.Log(x)
			}
			col := int((x - xmin) / (xmax - xmin) * float64(w-1))
			row := h - 1 - int((p.Y-ymin)/(ymax-ymin)*float64(h-1))
			if col < 0 || col >= w || row < 0 || row >= h {
				continue
			}
			grid[row][col] = marker
		}
	}

	var b strings.Builder
	if cfg.Title != "" {
		fmt.Fprintf(&b, "%s\n", cfg.Title)
	}
	yLabelW := 10
	for r, row := range grid {
		label := ""
		switch r {
		case 0:
			label = trimNum(ymax)
		case h - 1:
			label = trimNum(ymin)
		case h / 2:
			label = trimNum((ymax + ymin) / 2)
		}
		fmt.Fprintf(&b, "%*s |%s|\n", yLabelW, label, string(row))
	}
	lo, hi := xmin, xmax
	if cfg.LogX {
		lo, hi = math.Exp(xmin), math.Exp(xmax)
	}
	fmt.Fprintf(&b, "%*s  %-*s%s\n", yLabelW, "", w-len(trimNum(hi)), trimNum(lo), trimNum(hi))
	if cfg.XLabel != "" || cfg.YLabel != "" {
		fmt.Fprintf(&b, "%*s  x: %s   y: %s\n", yLabelW, "", cfg.XLabel, cfg.YLabel)
	}
	if len(series) > 1 {
		fmt.Fprintf(&b, "%*s  ", yLabelW, "")
		for si, s := range series {
			if si > 0 {
				b.WriteString("   ")
			}
			fmt.Fprintf(&b, "%c %s", markers[si%len(markers)], s.Name)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func trimNum(v float64) string {
	av := math.Abs(v)
	switch {
	case av >= 100:
		return fmt.Sprintf("%.0f", v)
	case av >= 1:
		return fmt.Sprintf("%.1f", v)
	case av == 0:
		return "0"
	default:
		return fmt.Sprintf("%.3f", v)
	}
}
