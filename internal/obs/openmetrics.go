package obs

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// OpenMetrics exposition (the successor format Prometheus scrapes when
// it negotiates `application/openmetrics-text`). It differs from the
// 0.0.4 text format in exactly the ways this file implements:
//
//   - counter families are named without their `_total` suffix in the
//     HELP/TYPE lines while the sample keeps it;
//   - histogram bucket samples may carry an exemplar — trailing
//     `# {trace_id="..."} value ts` — which is how a latency bucket
//     points back to a kept verdict trace on /traces;
//   - the stream is terminated by a mandatory `# EOF` line.
//
// The 0.0.4 writer (prom.go) is untouched: a scraper that does not ask
// for OpenMetrics gets byte-identical output to previous releases,
// exemplars included-out.

// ContentTypeOpenMetrics is the negotiated OpenMetrics content type.
const ContentTypeOpenMetrics = "application/openmetrics-text; version=1.0.0; charset=utf-8"

// ContentTypePrometheus is the default 0.0.4 text content type.
const ContentTypePrometheus = "text/plain; version=0.0.4; charset=utf-8"

// WriteOpenMetrics renders every registered family, and every family
// of a linked registry, in OpenMetrics text format, histogram exemplars
// included, ending with `# EOF`.
func (r *Registry) WriteOpenMetrics(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, v := range r.gather() {
		if err := v.writeOpenMetrics(bw); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(bw, "# EOF"); err != nil {
		return err
	}
	return bw.Flush()
}

func (v *view) writeOpenMetrics(w io.Writer) error {
	rows := v.rows()
	if len(rows) == 0 {
		return nil
	}

	// OpenMetrics names a counter family without the `_total` suffix;
	// the sample line carries it. Families registered without the
	// suffix gain it on the sample, which keeps the exposition legal
	// either way.
	famName, sampleName := v.name, v.name
	if v.kind == counterKind {
		famName = strings.TrimSuffix(v.name, "_total")
		sampleName = famName + "_total"
	}
	if v.help != "" {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n", famName, escapeHelp(v.help)); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", famName, v.kind); err != nil {
		return err
	}
	for _, rw := range rows {
		labels := v.renderLabels(rw.values, "", "")
		switch m := rw.m.(type) {
		case *Counter:
			if _, err := fmt.Fprintf(w, "%s%s %d\n", sampleName, labels, m.Value()); err != nil {
				return err
			}
		case *Gauge:
			if _, err := fmt.Fprintf(w, "%s%s %s\n", famName, labels, formatFloat(m.Value())); err != nil {
				return err
			}
		case *GaugeFunc:
			if _, err := fmt.Fprintf(w, "%s%s %s\n", famName, labels, formatFloat(m.Value())); err != nil {
				return err
			}
		case *Histogram:
			upper, cum := m.Buckets()
			ex := m.BucketExemplars()
			for i, ub := range upper {
				le := v.renderLabels(rw.values, "le", formatFloat(ub))
				if _, err := fmt.Fprintf(w, "%s_bucket%s %d%s\n", famName, le, cum[i], exemplarSuffix(ex[i])); err != nil {
					return err
				}
			}
			inf := v.renderLabels(rw.values, "le", "+Inf")
			count := m.Count()
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d%s\n", famName, inf, count, exemplarSuffix(ex[len(ex)-1])); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", famName, labels, formatFloat(m.Sum())); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_count%s %d\n", famName, labels, count); err != nil {
				return err
			}
		}
	}
	return nil
}

// exemplarSuffix renders ` # {trace_id="..."} value ts` (empty string
// when no exemplar was recorded for the bucket).
func exemplarSuffix(e *Exemplar) string {
	if e == nil {
		return ""
	}
	s := fmt.Sprintf(" # {trace_id=%q} %s", e.TraceID, formatFloat(e.Value))
	if e.Ts != 0 {
		s += " " + strconv.FormatFloat(e.Ts, 'f', 3, 64)
	}
	return s
}

// AcceptsOpenMetrics reports whether an Accept header asks for the
// OpenMetrics exposition: the `application/openmetrics-text` media
// range must be present with a non-zero quality, and it must not lose
// to an explicitly higher-quality text/plain alternative. An absent or
// wildcard-only header stays on the 0.0.4 default — existing scrapers
// see exactly what they saw before.
func AcceptsOpenMetrics(accept string) bool {
	qOpen, qPlain := -1.0, -1.0
	for _, part := range strings.Split(accept, ",") {
		mediaRange, q := parseMediaRange(part)
		switch mediaRange {
		case "application/openmetrics-text":
			if q > qOpen {
				qOpen = q
			}
		case "text/plain":
			if q > qPlain {
				qPlain = q
			}
		}
	}
	return qOpen > 0 && qOpen >= qPlain
}

// parseMediaRange splits one Accept clause into its media type and
// quality (default 1). Malformed q-values read as 1, matching the
// tolerant behaviour scrapers expect from an ops endpoint.
func parseMediaRange(clause string) (string, float64) {
	fields := strings.Split(clause, ";")
	media := strings.ToLower(strings.TrimSpace(fields[0]))
	q := 1.0
	for _, p := range fields[1:] {
		k, v, ok := strings.Cut(strings.TrimSpace(p), "=")
		if ok && strings.EqualFold(strings.TrimSpace(k), "q") {
			if parsed, err := strconv.ParseFloat(strings.TrimSpace(v), 64); err == nil {
				q = parsed
			}
		}
	}
	return media, q
}
