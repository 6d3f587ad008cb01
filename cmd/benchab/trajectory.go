package main

import (
	"fmt"
	"io"
)

// trajectory prints, for each workload, seed and end-to-end metric, the
// base median every report at paths recorded, in the order given, beside
// the host anchor timed over that comparison's pairs: the median and
// quartiles of anchor_ns, or "-" for a report written before the anchor
// existed. Nothing is normalised by the anchor, whose timings can spread
// widely inside one report; it is printed for the reader to weigh.
func trajectory(paths []string, w io.Writer) error {
	type key struct {
		workload string
		seed     int64
	}
	type row struct {
		path string
		c    *comparison
	}
	var keys []key
	rows := map[key][]row{}
	for _, path := range paths {
		rep, err := loadReport(path)
		if err != nil {
			return err
		}
		for i := range rep.Comparisons {
			c := &rep.Comparisons[i]
			k := key{c.Workload, c.Seed}
			if rows[k] == nil {
				keys = append(keys, k)
			}
			rows[k] = append(rows[k], row{path, c})
		}
	}
	for _, k := range keys {
		for _, spec := range rows[k][0].c.Metrics {
			fmt.Fprintf(w, "%s  seed %d  %s (%s, %s is better)\n", k.workload, k.seed, spec.Name, spec.Unit, spec.Better)
			for _, r := range rows[k] {
				median := "-"
				for _, m := range r.c.Metrics {
					if m.Name == spec.Name {
						median = fmt.Sprintf("%.4g", m.Base.Median)
					}
				}
				fmt.Fprintf(w, "  %-40s base median %-12s anchor_ns %s\n", r.path, median, anchorSummary(r.c.Pairs))
			}
		}
		fmt.Fprintln(w)
	}
	return nil
}

// anchorSummary is the median and quartiles of the pairs' anchor_ns, or
// "-" when none recorded one.
func anchorSummary(pairs []pair) string {
	var ns []float64
	for _, p := range pairs {
		if p.AnchorNS > 0 {
			ns = append(ns, float64(p.AnchorNS))
		}
	}
	if len(ns) == 0 {
		return "-"
	}
	s := summarize(ns)
	return fmt.Sprintf("%.0f (q1 %.0f, q3 %.0f)", s.Median, s.Q1, s.Q3)
}
