package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"rhmd/internal/obs/span"
)

// benchSpan is one timed call the benchmark made into a layer's public
// function. Spans of one program share Trace; N is the work the call
// did (instructions, events, calls), so per-unit costs are measured
// where the work happens.
type benchSpan struct {
	Trace  int    `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	N      int64  `json:"n"`
}

func (s *benchSpan) dur() time.Duration { return time.Duration(s.End - s.Start) }

// benchSpans keeps the traced run's own spans in memory until the run
// ends. A nil span is a no-op, so untraced code paths need no checks.
type benchSpans struct {
	t0    time.Time
	mu    sync.Mutex
	spans []*benchSpan
	trace int
}

// start opens a span under parent; a nil parent starts a new trace.
func (b *benchSpans) start(name string, parent *benchSpan) *benchSpan {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.t0.IsZero() {
		b.t0 = time.Now()
	}
	s := &benchSpan{ID: len(b.spans) + 1, Name: name}
	if parent != nil {
		s.Trace, s.Parent = parent.Trace, parent.ID
	} else {
		b.trace++
		s.Trace = b.trace
	}
	b.spans = append(b.spans, s)
	s.Start = int64(time.Since(b.t0))
	return s
}

// end closes a span, recording the work n it covered.
func (b *benchSpans) end(s *benchSpan, n int64) {
	if s == nil {
		return
	}
	s.End = int64(time.Since(b.t0))
	s.N = n
}

// timed runs fn inside a span and returns fn's work count.
func (b *benchSpans) timed(name string, parent *benchSpan, fn func() int64) *benchSpan {
	s := b.start(name, parent)
	b.end(s, fn())
	return s
}

// total sums the durations and work counts of every span named name.
func (b *benchSpans) total(name string) (time.Duration, int64) {
	var d time.Duration
	var n int64
	for _, s := range b.spans {
		if s.Name == name {
			d += s.dur()
			n += s.N
		}
	}
	return d, n
}

// perUnit is the named spans' total duration per unit of work, in ns.
func (b *benchSpans) perUnit(name string) float64 {
	d, n := b.total(name)
	if n == 0 {
		return 0
	}
	return float64(d) / float64(n)
}

// durations lists the durations of every span named name.
func (b *benchSpans) durations(name string) []float64 {
	var out []float64
	for _, s := range b.spans {
		if s.Name == name {
			out = append(out, float64(s.dur()))
		}
	}
	return out
}

// stageDurations collects the engine's span durations (ns) per stage.
func stageDurations(traces []*span.KeptTrace) map[string][]float64 {
	out := map[string][]float64{}
	for _, kt := range traces {
		for _, s := range kt.Spans {
			out[s.Stage] = append(out[s.Stage], float64(s.Dur))
		}
	}
	return out
}

// quantile returns the q-quantile of xs by linear interpolation (xs is
// sorted in place); 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// writeSpans writes the traced run's spans: the benchmark's own and the
// engine's kept traces of the open-loop phase.
func writeSpans(path string, bench []*benchSpan, engine []*span.KeptTrace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = json.NewEncoder(f).Encode(struct {
		Bench  []*benchSpan      `json:"bench_spans"`
		Engine []*span.KeptTrace `json:"engine_traces"`
	}{bench, engine})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return nil
}
