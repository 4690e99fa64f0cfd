package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// WritePrometheus renders every registered family, and every family of
// a linked registry, in Prometheus text exposition format (version
// 0.0.4): one HELP/TYPE header per name, names sorted, series sorted by
// label values (linked series in link order), histograms expanded into
// cumulative `_bucket{le=...}` series plus `_sum` and `_count`.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, v := range r.gather() {
		if err := v.write(bw); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func (v *view) write(w io.Writer) error {
	rows := v.rows()
	if len(rows) == 0 {
		return nil
	}

	if v.help != "" {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n", v.name, escapeHelp(v.help)); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", v.name, v.kind); err != nil {
		return err
	}
	for _, rw := range rows {
		labels := v.renderLabels(rw.values, "", "")
		switch m := rw.m.(type) {
		case *Counter:
			if _, err := fmt.Fprintf(w, "%s%s %d\n", v.name, labels, m.Value()); err != nil {
				return err
			}
		case *Gauge:
			if _, err := fmt.Fprintf(w, "%s%s %s\n", v.name, labels, formatFloat(m.Value())); err != nil {
				return err
			}
		case *GaugeFunc:
			if _, err := fmt.Fprintf(w, "%s%s %s\n", v.name, labels, formatFloat(m.Value())); err != nil {
				return err
			}
		case *Histogram:
			upper, cum := m.Buckets()
			for i, ub := range upper {
				le := v.renderLabels(rw.values, "le", formatFloat(ub))
				if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", v.name, le, cum[i]); err != nil {
					return err
				}
			}
			inf := v.renderLabels(rw.values, "le", "+Inf")
			count := m.Count()
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", v.name, inf, count); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", v.name, labels, formatFloat(m.Sum())); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_count%s %d\n", v.name, labels, count); err != nil {
				return err
			}
		}
	}
	return nil
}

// renderLabels renders `{a="x",b="y"}` for one series' label values,
// optionally appending one extra pair (the histogram `le` label).
// Scalar series with no extra pair render as the empty string.
func (v *view) renderLabels(values []string, extraName, extraValue string) string {
	// %q matches the exposition grammar's label escaping exactly:
	// backslash, double quote and newline.
	var pairs []string
	for i, l := range v.labels {
		pairs = append(pairs, fmt.Sprintf("%s=%q", l, values[i]))
	}
	if extraName != "" {
		pairs = append(pairs, fmt.Sprintf("%s=%q", extraName, extraValue))
	}
	if len(pairs) == 0 {
		return ""
	}
	return "{" + strings.Join(pairs, ",") + "}"
}

// formatFloat renders a sample value the way Prometheus expects.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}
