package scenario

import (
	"fmt"
	"sort"
	"time"
)

// builtins is the named scenario library the benchrunner executes.
// Each entry is a constructor taking the run seed, so one scenario can
// be replayed under different seeds without editing the library. The
// map is never ranged for output — Names() sorts, Lookup() indexes — so
// it is safe under the determinism analyzer.
var builtins = map[string]func(seed uint64) Spec{
	// steady is the regression-gate scenario: fixed-rate traffic on a
	// one-shard fleet, clean corpus, no faults. Its BENCH report is the
	// one compared against the committed baseline.
	"steady": func(seed uint64) Spec {
		return Spec{
			Name:        "steady",
			Description: "fixed-rate clean traffic on a one-shard fleet; the CI regression gate",
			Seed:        seed,
			Events:      96,
			Shape:       Shape{Kind: Steady}, // unpaced: measures saturation throughput
			Engine:      EngineSpec{Workers: 4, QueueDepth: 96},
		}
	},
	// burst stresses queue depth and shedding: short queue, deep
	// bursts.
	"burst": func(seed uint64) Spec {
		return Spec{
			Name:        "burst",
			Description: "back-to-back bursts against a short queue; measures shedding under overload",
			Seed:        seed,
			Events:      96,
			Shape:       Shape{Kind: Burst, BurstLen: 24, BurstGap: 2 * time.Millisecond},
			Engine:      EngineSpec{Workers: 2, QueueDepth: 8},
		}
	},
	// diurnal sweeps the arrival rate sinusoidally — latency percentiles
	// under a rising and falling load curve.
	"diurnal": func(seed uint64) Spec {
		return Spec{
			Name:        "diurnal",
			Description: "sinusoidally ramped arrival rate; latency percentiles across the load curve",
			Seed:        seed,
			Events:      96,
			Shape:       Shape{Kind: Diurnal, Rate: 400, Cycles: 2},
			Engine:      EngineSpec{Workers: 4, QueueDepth: 96},
		}
	},
	// hotkey skews most traffic onto two streams of a 4-shard fleet —
	// per-shard isolation under load imbalance.
	"hotkey": func(seed uint64) Spec {
		return Spec{
			Name:        "hotkey",
			Description: "70% of traffic on 2 hot streams across a 4-shard fleet; shard imbalance",
			Seed:        seed,
			Events:      96,
			Shape:       Shape{Kind: HotKey, HotFraction: 0.7, HotStreams: 2},
			Engine:      EngineSpec{Workers: 2, QueueDepth: 96, Shards: 4},
		}
	},
	// breaker-storm runs steady load while every detector throws errors
	// for its first 40 calls — quarantine/restore churn and degraded-
	// mode latency.
	"breaker-storm": func(seed uint64) Spec {
		return Spec{
			Name:        "breaker-storm",
			Description: "detector error storm (rate 0.6, first 40 calls) under steady load; breaker churn",
			Seed:        seed,
			Events:      96,
			Shape:       Shape{Kind: Steady},
			Faults:      Faults{Storm: &BreakerStorm{Rate: 0.6, Until: 40}},
			Engine:      EngineSpec{Workers: 4, QueueDepth: 96},
		}
	},
	// chaos-restart kills one shard of a 3-shard fleet mid-run via the
	// wedge script — measures reroute latency and restart cost under
	// load.
	"chaos-restart": func(seed uint64) Spec {
		return Spec{
			Name:        "chaos-restart",
			Description: "wedge shard 1 of a 3-shard fleet after 10 verdicts; reroute + restart under load",
			Seed:        seed,
			Events:      96,
			Shape:       Shape{Kind: Steady},
			Faults:      Faults{Chaos: "1:wedge:10"},
			Engine:      EngineSpec{Workers: 2, QueueDepth: 96, Shards: 3},
		}
	},
	// drift-ramp is the drift-guard exercise workload: a longer, harder
	// adversary ramp (0 → 0.9, bigger payloads) whose late-run mix is
	// evasive enough to collapse inter-detector agreement — the input
	// that makes internal/driftguard fire, retrain and hot-swap. The
	// BENCH report's pool_generation/pool_swaps counters record whether
	// the run actually swapped.
	"drift-ramp": func(seed uint64) Spec {
		return Spec{
			Name:        "drift-ramp",
			Description: "evasive fraction ramps 0 to 0.9 with heavier injection; drives the drift-guard retrain/swap loop",
			Seed:        seed,
			Events:      128,
			Shape:       Shape{Kind: Steady},
			Adversary:   Adversary{Start: 0, End: 0.9, PayloadLen: 6, MemDelta: 96},
			Engine:      EngineSpec{Workers: 4, QueueDepth: 128},
		}
	},
	// adversary-ramp ramps the evasive fraction 0 → 0.8 across the run:
	// throughput and latency as injected variants (bigger programs,
	// shifted features) take over the mix.
	"adversary-ramp": func(seed uint64) Spec {
		return Spec{
			Name:        "adversary-ramp",
			Description: "evasive fraction ramps 0 to 0.8 over the run (block-level injection)",
			Seed:        seed,
			Events:      96,
			Shape:       Shape{Kind: Steady},
			Adversary:   Adversary{Start: 0, End: 0.8, PayloadLen: 4, MemDelta: 64},
			Engine:      EngineSpec{Workers: 4, QueueDepth: 96},
		}
	},
}

// Names returns the registered scenario names, sorted.
func Names() []string {
	out := make([]string, 0, len(builtins))
	//rhmd:ignore determinism keys are sorted right after collection
	for name := range builtins {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Lookup returns the named scenario's Spec built for the given seed.
func Lookup(name string, seed uint64) (Spec, error) {
	f, ok := builtins[name]
	if !ok {
		return Spec{}, fmt.Errorf("scenario: unknown scenario %q (have %v)", name, Names())
	}
	return f(seed), nil
}
