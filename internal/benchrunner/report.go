// Package benchrunner executes named load scenarios (internal/scenario)
// against the monitor engine or the sharded fleet and emits versioned,
// machine-readable BENCH reports: throughput, latency percentiles
// (exact client-side and histogram-estimated), shed/retry/restart
// counters, allocation cost, and optional pprof captures. Reports are
// the perf ledger of the repo — CI replays the core scenarios every
// push and gates on regression against a committed baseline.
package benchrunner

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// SchemaVersion identifies the BENCH report wire format. Bump it on
// any breaking field change; Load refuses reports from a different
// major schema so a stale baseline fails loudly instead of comparing
// garbage.
const SchemaVersion = "rhmd.bench/v1"

// Percentiles is one latency distribution summary, milliseconds.
type Percentiles struct {
	P50ms float64 `json:"p50_ms"`
	P95ms float64 `json:"p95_ms"`
	P99ms float64 `json:"p99_ms"`
	// Samples is the observation count behind the percentiles.
	Samples uint64 `json:"samples"`
}

// Latency carries the two percentile derivations side by side: Exact
// is measured client-side per submission (submit wall time → verdict
// wall time, exact order statistics); Histogram is estimated from the
// engine's rhmd_monitor_verdict_latency_seconds buckets via
// obs.Quantile, with that helper's documented interpolation error.
// Histogram is nil on the fleet path, where per-shard engine
// registries are private to each generation.
type Latency struct {
	Exact     *Percentiles `json:"exact,omitempty"`
	Histogram *Percentiles `json:"histogram,omitempty"`
}

// Counters is the run's outcome and fault accounting, summed across
// shards on the fleet path.
type Counters struct {
	Processed          uint64 `json:"processed"`
	Shed               uint64 `json:"shed"`
	Failed             uint64 `json:"failed"`
	Undurable          uint64 `json:"undurable"`
	Windows            uint64 `json:"windows"`
	Flagged            uint64 `json:"flagged"`
	Degraded           uint64 `json:"degraded"`
	DroppedWindows     uint64 `json:"dropped_windows"`
	Retries            uint64 `json:"retries"`
	Timeouts           uint64 `json:"timeouts"`
	Panics             uint64 `json:"panics"`
	WorkerCrashes      uint64 `json:"worker_crashes"`
	CheckpointFailures uint64 `json:"checkpoint_failures"`
	Quarantines        uint64 `json:"quarantines"`
	Restores           uint64 `json:"restores"`
	// Restarts and Rerouted are fleet-path only (shard supervision).
	Restarts uint64 `json:"restarts"`
	Rerouted uint64 `json:"rerouted"`
	// PoolGeneration is the serving detector-pool epoch at run end
	// (fleet-level target epoch on the fleet path); PoolSwaps counts
	// SwapPool commits during the run, summed across shards. Both stay 0
	// unless a drift guard (or operator) swapped mid-run.
	PoolGeneration uint64 `json:"pool_generation"`
	PoolSwaps      uint64 `json:"pool_swaps"`
}

// Profiles records where pprof captures were written.
type Profiles struct {
	CPU  string `json:"cpu,omitempty"`
	Heap string `json:"heap,omitempty"`
}

// SLOVerdict is one objective's end-of-run evaluation when the run was
// executed with the SLO engine enabled: the scenario doubles as an SLO
// conformance run, and the report records whether the run's telemetry
// met each objective.
type SLOVerdict struct {
	Objective       string  `json:"objective"`
	Target          float64 `json:"target"`
	State           string  `json:"state"`
	BadRatio        float64 `json:"bad_ratio"`
	BudgetRemaining float64 `json:"budget_remaining"`
	BurnFast        float64 `json:"burn_fast"`
	BurnSlow        float64 `json:"burn_slow"`
}

// Report is one scenario run's machine-readable result.
type Report struct {
	Schema      string `json:"schema"`
	Scenario    string `json:"scenario"`
	Description string `json:"description,omitempty"`
	Seed        uint64 `json:"seed"`
	// Fingerprint is the compiled corpus's workload identity
	// (scenario.Corpus.Fingerprint, hex). Comparisons across different
	// fingerprints measure different work; Compare flags them.
	Fingerprint string `json:"fingerprint"`
	// GoVersion and Revision pin the build that produced the numbers
	// (obs.BuildInfo; Revision is the VCS commit, "-dirty" suffixed
	// when the worktree was modified).
	GoVersion string `json:"go_version"`
	Revision  string `json:"revision,omitempty"`

	// Shards is the fleet's shard count, at least 1. Workers is per
	// shard.
	Shards  int `json:"shards"`
	Workers int `json:"workers"`
	// Events is the submission count; Evasive the subset replaying
	// injected variants.
	Events  int `json:"events"`
	Evasive int `json:"evasive_events"`

	WallSeconds float64 `json:"wall_seconds"`
	// ThroughputPerSec is processed verdicts per wall second — the
	// number the CI gate compares.
	ThroughputPerSec float64 `json:"throughput_per_sec"`

	Latency  Latency  `json:"latency"`
	Counters Counters `json:"counters"`

	// AllocsPerOp and BytesPerOp are heap cost per processed program
	// (runtime.MemStats deltas across the run, post-GC baselines).
	AllocsPerOp uint64 `json:"allocs_per_op"`
	BytesPerOp  uint64 `json:"bytes_per_op"`

	Profiles *Profiles `json:"profiles,omitempty"`

	// SLO carries per-objective conformance verdicts when the run was
	// executed with -slo (additive; absent on plain perf runs).
	SLO []SLOVerdict `json:"slo,omitempty"`

	// Note carries provenance for hand-converted reports (e.g. the
	// seed baseline derived from results/bench-spans.txt).
	Note string `json:"note,omitempty"`
}

// Path returns the conventional report filename for a scenario.
func Path(dir, scenario string) string {
	return filepath.Join(dir, "BENCH_"+scenario+".json")
}

// Write marshals the report to its conventional path under dir and
// returns the path.
func (r *Report) Write(dir string) (string, error) {
	path := Path(dir, r.Scenario)
	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "", err
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// Load reads and schema-checks a report.
func Load(path string) (*Report, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(buf, &r); err != nil {
		return nil, fmt.Errorf("benchrunner: %s: %w", path, err)
	}
	if r.Schema != SchemaVersion {
		return nil, fmt.Errorf("benchrunner: %s has schema %q, this binary speaks %q", path, r.Schema, SchemaVersion)
	}
	return &r, nil
}

// Comparison is the outcome of gating a run against a baseline.
type Comparison struct {
	// Regressions are threshold violations: non-empty fails the gate.
	Regressions []string
	// Notes are informational deltas (latency shifts, fingerprint
	// mismatches) that do not fail the gate by themselves.
	Notes []string
}

// Failed reports whether the comparison should fail CI.
func (c *Comparison) Failed() bool { return len(c.Regressions) > 0 }

// Compare gates current against baseline: throughput may not drop more
// than threshold (fractional, e.g. 0.10 = 10%). Latency and allocation
// deltas are reported as notes — they vary too much across hosts to
// hard-gate, but belong in the CI log. A fingerprint mismatch is noted
// (the workloads differ, e.g. a hand-converted seed baseline), not
// failed.
func Compare(current, baseline *Report, threshold float64) *Comparison {
	c := &Comparison{}
	if current.Fingerprint != baseline.Fingerprint {
		c.Notes = append(c.Notes, fmt.Sprintf(
			"workload fingerprints differ (current %s, baseline %s): comparing different corpora",
			current.Fingerprint, baseline.Fingerprint))
	}
	floor := baseline.ThroughputPerSec * (1 - threshold)
	if current.ThroughputPerSec < floor {
		c.Regressions = append(c.Regressions, fmt.Sprintf(
			"throughput %.1f/s is %.1f%% below baseline %.1f/s (floor %.1f/s at %.0f%% threshold)",
			current.ThroughputPerSec,
			100*(1-current.ThroughputPerSec/baseline.ThroughputPerSec),
			baseline.ThroughputPerSec, floor, 100*threshold))
	}
	if cur, base := current.Latency.Exact, baseline.Latency.Exact; cur != nil && base != nil && base.P95ms > 0 {
		c.Notes = append(c.Notes, fmt.Sprintf("p95 %.2fms vs baseline %.2fms (%+.1f%%)",
			cur.P95ms, base.P95ms, 100*(cur.P95ms/base.P95ms-1)))
	}
	if baseline.AllocsPerOp > 0 && current.AllocsPerOp > 0 {
		c.Notes = append(c.Notes, fmt.Sprintf("allocs/op %d vs baseline %d (%+.1f%%)",
			current.AllocsPerOp, baseline.AllocsPerOp,
			100*(float64(current.AllocsPerOp)/float64(baseline.AllocsPerOp)-1)))
	}
	return c
}
