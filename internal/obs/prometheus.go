package obs

import (
	"bufio"
	"io"
	"strconv"
	"strings"
)

// WritePrometheus renders every observer's metrics in the Prometheus text
// exposition format (version 0.0.4). Families with the same name across
// observers are merged under a single HELP/TYPE header, in first-seen
// order; series render in observer order then creation order, so the
// output is byte-stable across runs.
func (m *Multi) WritePrometheus(w io.Writer) error {
	if m == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	var order []string
	merged := make(map[string][]*family)
	for _, o := range m.observers {
		if o == nil {
			continue
		}
		for _, f := range o.families {
			if _, ok := merged[f.name]; !ok {
				order = append(order, f.name)
			}
			merged[f.name] = append(merged[f.name], f)
		}
	}
	for _, name := range order {
		fams := merged[name]
		head := fams[0]
		bw.WriteString("# HELP ")
		bw.WriteString(name)
		bw.WriteByte(' ')
		bw.WriteString(escapeHelp(head.help))
		bw.WriteString("\n# TYPE ")
		bw.WriteString(name)
		bw.WriteByte(' ')
		bw.WriteString(head.kind.String())
		bw.WriteByte('\n')
		for _, f := range fams {
			for _, s := range f.series {
				writeSeries(bw, f, s)
			}
		}
	}
	return bw.Flush()
}

func writeSeries(bw *bufio.Writer, f *family, s *series) {
	if f.kind != kindHistogram {
		bw.WriteString(f.name)
		bw.WriteString(s.labelStr)
		bw.WriteByte(' ')
		bw.WriteString(formatFloat(s.current()))
		bw.WriteByte('\n')
		return
	}
	cum := uint64(0)
	for i, ub := range f.buckets {
		cum += s.counts[i]
		writeBucket(bw, f.name, s.labelStr, formatFloat(ub), cum)
	}
	cum += s.counts[len(f.buckets)]
	writeBucket(bw, f.name, s.labelStr, "+Inf", cum)
	bw.WriteString(f.name)
	bw.WriteString("_sum")
	bw.WriteString(s.labelStr)
	bw.WriteByte(' ')
	bw.WriteString(formatFloat(s.sum))
	bw.WriteByte('\n')
	bw.WriteString(f.name)
	bw.WriteString("_count")
	bw.WriteString(s.labelStr)
	bw.WriteByte(' ')
	bw.WriteString(strconv.FormatUint(s.count, 10))
	bw.WriteByte('\n')
}

func writeBucket(bw *bufio.Writer, name, labelStr, le string, cum uint64) {
	bw.WriteString(name)
	bw.WriteString("_bucket")
	if labelStr == "" {
		bw.WriteString(`{le="`)
	} else {
		bw.WriteString(labelStr[:len(labelStr)-1]) // drop trailing '}'
		bw.WriteString(`,le="`)
	}
	bw.WriteString(le)
	bw.WriteString(`"} `)
	bw.WriteString(strconv.FormatUint(cum, 10))
	bw.WriteByte('\n')
}

// renderLabels pre-renders a {k="v",...} suffix; empty label sets render
// as "".
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var sb strings.Builder
	sb.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(l.Key)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabelValue(l.Value))
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	return sb.String()
}

func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

func escapeHelp(v string) string {
	if !strings.ContainsAny(v, "\\\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(v)
}

// formatFloat renders a metric value: integral values print without a
// decimal point (the common case for page/byte counters), everything else
// uses the shortest round-trip representation.
func formatFloat(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
