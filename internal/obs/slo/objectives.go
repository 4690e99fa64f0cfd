package slo

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"rhmd/internal/obs"
)

// Series readers: small adapters from registry snapshots to the
// cumulative / instantaneous values objectives consume. All of them
// treat a missing family as "no data" — zero for cumulative series
// (no events yet) and NaN for gauges (sample skipped) — so objectives
// over optional layers (drift guard, fleet) are safe to configure
// unconditionally.

// CounterSeries reads a counter family summed over all label tuples.
func CounterSeries(name string) func(obs.Snapshot) float64 {
	return func(s obs.Snapshot) float64 { return float64(s.Counter(name)) }
}

// CounterWithSeries reads one labeled child of a counter family,
// summed over any link label such as a fleet's shard (see
// obs.Snapshot.CounterWith).
func CounterWithSeries(name string, values ...string) func(obs.Snapshot) float64 {
	return func(s obs.Snapshot) float64 { return float64(s.CounterWith(name, values...)) }
}

// CounterSumSeries reads the sum of several labeled children of one
// counter family — e.g. processed+undurable as a durability total.
func CounterSumSeries(name string, valueSets ...[]string) func(obs.Snapshot) float64 {
	return func(s obs.Snapshot) float64 {
		var total float64
		for _, values := range valueSets {
			total += float64(s.CounterWith(name, values...))
		}
		return total
	}
}

// HistogramCountSeries reads a histogram family's total observation
// count (children merged).
func HistogramCountSeries(name string) func(obs.Snapshot) float64 {
	return func(s obs.Snapshot) float64 {
		h := s.Histogram(name)
		if h == nil {
			return 0
		}
		return float64(h.Count)
	}
}

// HistogramAboveSeries reads the cumulative count of observations
// above threshold. The threshold snaps UP to the nearest bucket upper
// bound (histograms only know bucket-edge resolution), so "latency >
// 50ms" on a {…, 0.05, 0.1, …} layout counts observations beyond the
// 0.05 bucket exactly; a threshold between edges errs toward counting
// fewer events bad, never more.
func HistogramAboveSeries(name string, threshold float64) func(obs.Snapshot) float64 {
	return func(s obs.Snapshot) float64 {
		h := s.Histogram(name)
		if h == nil {
			return 0
		}
		below := uint64(0)
		for i, upper := range h.Upper {
			if upper >= threshold {
				below = h.Cumulative[i]
				break
			}
		}
		return float64(h.Count - below)
	}
}

// GaugeSeries reads a gauge: the child with the given leading label
// values (the scalar when none are given), summed over any link label
// such as a fleet's shard. It returns NaN when no gauge child matches —
// the bound-SLI "no data" marker.
func GaugeSeries(name string, values ...string) func(obs.Snapshot) float64 {
	return func(s obs.Snapshot) float64 {
		if v, ok := s.GaugeWith(name, values...); ok {
			return v
		}
		return math.NaN()
	}
}

// LatencyObjective builds the verdict-latency SLI: the fraction of
// verdicts completing within threshold must be ≥ target. Reads the
// monitor's scalar verdict-latency histogram.
func LatencyObjective(target float64, threshold time.Duration) Objective {
	const hist = "rhmd_monitor_verdict_latency_seconds"
	return EventRatio("verdict-latency",
		fmt.Sprintf("fraction of verdicts completing within %s", threshold),
		target,
		HistogramAboveSeries(hist, threshold.Seconds()),
		HistogramCountSeries(hist))
}

// DefaultObjectives returns the monitor's standing objective set:
//
//   - verdict-latency: ≥99% of verdicts within threshold (p99 bound).
//   - shed-rate: ≥99.9% of submissions accepted (not shed).
//   - durability: ≥99.99% of processed verdicts durably committed to
//     the WAL (undurable outcomes burn the budget).
//   - drift-accuracy / drift-agreement: the drift guard's EWMAs stay
//     above its own intervention floors; absent (NaN) when no guard
//     is wired, so the objectives idle harmlessly.
//   - fleet-serving: at least 75% of the fleet's shards serving.
//
// The monitor counters are read across every shard a fleet registry
// links (see obs.Registry.Link). Thresholds mirror the subsystems' own
// defaults (driftguard floors 0.65/0.30) so /slo agrees with the layers
// it watches.
func DefaultObjectives(latencyThreshold time.Duration) []Objective {
	if latencyThreshold <= 0 {
		latencyThreshold = 50 * time.Millisecond
	}
	const programs = "rhmd_monitor_programs_total"
	return []Objective{
		LatencyObjective(0.99, latencyThreshold),
		EventRatio("shed-rate",
			"fraction of submissions accepted rather than shed",
			0.999,
			CounterWithSeries(programs, "shed"),
			CounterSeries(programs)),
		EventRatio("durability",
			"fraction of completed verdicts durably committed to the WAL",
			0.9999,
			CounterWithSeries(programs, "undurable"),
			CounterSumSeries(programs, []string{"processed"}, []string{"undurable"})),
		BoundMin("drift-accuracy",
			"drift-guard labeled-accuracy EWMA above the retrain floor",
			0.99, 0.65, GaugeSeries("rhmd_drift_accuracy_ewma")),
		BoundMin("drift-agreement",
			"drift-guard ensemble-agreement EWMA above the drift floor",
			0.99, 0.30, GaugeSeries("rhmd_drift_agreement_ewma")),
		BoundMin("fleet-serving",
			"fraction of shards serving stays ≥ 75%",
			0.99, 0.75, GaugeSeries("rhmd_fleet_serving_fraction")),
	}
}

// objectiveSpec is the -slo-config JSON form of one objective. Kind
// selects the indicator:
//
//	latency — histogram + threshold_ms (bad = observations above it)
//	ratio   — bad/total counter reads (label values optional)
//	bound   — gauge sample with min and/or max
type objectiveSpec struct {
	Name        string  `json:"name"`
	Description string  `json:"description"`
	Kind        string  `json:"kind"`
	Target      float64 `json:"target"`

	// latency
	Histogram   string  `json:"histogram,omitempty"`
	ThresholdMS float64 `json:"threshold_ms,omitempty"`

	// ratio
	Bad   *counterRef `json:"bad,omitempty"`
	Total *counterRef `json:"total,omitempty"`

	// bound
	Gauge  string   `json:"gauge,omitempty"`
	Labels []string `json:"labels,omitempty"`
	Min    *float64 `json:"min,omitempty"`
	Max    *float64 `json:"max,omitempty"`
}

type counterRef struct {
	Counter string   `json:"counter"`
	Labels  []string `json:"labels,omitempty"`
}

func (r *counterRef) series() func(obs.Snapshot) float64 {
	if len(r.Labels) > 0 {
		return CounterWithSeries(r.Counter, r.Labels...)
	}
	return CounterSeries(r.Counter)
}

// ParseObjectives decodes a -slo-config JSON document — either a bare
// array of objective specs or {"objectives": [...]} — into objectives
// ready for Config. Unknown fields are rejected so typos fail loudly.
func ParseObjectives(data []byte) ([]Objective, error) {
	var doc struct {
		Objectives []objectiveSpec `json:"objectives"`
	}
	if err := strictUnmarshal(data, &doc); err != nil {
		var bare []objectiveSpec
		if err2 := strictUnmarshal(data, &bare); err2 != nil {
			return nil, fmt.Errorf("slo: parse config: %w", err)
		}
		doc.Objectives = bare
	}
	if len(doc.Objectives) == 0 {
		return nil, fmt.Errorf("slo: config declares no objectives")
	}
	out := make([]Objective, 0, len(doc.Objectives))
	for i := range doc.Objectives {
		o, err := doc.Objectives[i].build()
		if err != nil {
			return nil, err
		}
		out = append(out, o)
	}
	return out, nil
}

func strictUnmarshal(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

func (sp *objectiveSpec) build() (Objective, error) {
	switch sp.Kind {
	case "latency":
		hist := sp.Histogram
		if hist == "" {
			hist = "rhmd_monitor_verdict_latency_seconds"
		}
		if sp.ThresholdMS <= 0 {
			return Objective{}, fmt.Errorf("slo: objective %q: latency kind needs threshold_ms > 0", sp.Name)
		}
		return Objective{Name: sp.Name, Description: sp.Description, Target: sp.Target,
			Bad:   HistogramAboveSeries(hist, sp.ThresholdMS/1000),
			Total: HistogramCountSeries(hist)}, nil
	case "ratio":
		if sp.Bad == nil || sp.Total == nil {
			return Objective{}, fmt.Errorf("slo: objective %q: ratio kind needs bad and total counters", sp.Name)
		}
		return Objective{Name: sp.Name, Description: sp.Description, Target: sp.Target,
			Bad: sp.Bad.series(), Total: sp.Total.series()}, nil
	case "bound":
		if sp.Gauge == "" {
			return Objective{}, fmt.Errorf("slo: objective %q: bound kind needs a gauge", sp.Name)
		}
		if sp.Min == nil && sp.Max == nil {
			return Objective{}, fmt.Errorf("slo: objective %q: bound kind needs min and/or max", sp.Name)
		}
		o := Objective{Name: sp.Name, Description: sp.Description, Target: sp.Target,
			Value: GaugeSeries(sp.Gauge, sp.Labels...),
			Min:   math.NaN(), Max: math.NaN()}
		if sp.Min != nil {
			o.Min = *sp.Min
		}
		if sp.Max != nil {
			o.Max = *sp.Max
		}
		return o, nil
	default:
		return Objective{}, fmt.Errorf("slo: objective %q: unknown kind %q (want latency, ratio or bound)", sp.Name, sp.Kind)
	}
}
