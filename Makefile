GO ?= go

.PHONY: all fmt vet lint lint-baseline build test race bench benchjson trace-smoke fuzz crashtest chaostest drifttest check clean

all: check

# Fails when any file is unformatted; instrumentation never lands ugly.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# Project-invariant analyzer suite (internal/analysis): the PR 4
# per-expression checks plus the CFG/dataflow lifecycle suite
# (goroutineleak, poolhandoff, spanbalance, walorder, metricsconv).
# Packages are analyzed in parallel; the run emits a SARIF 2.1.0
# artifact (CI uploads it) and gates against the committed baseline:
# an error-severity finding not recorded in .rhmd-lint-baseline.json
# fails the build. See README "Static analysis" for //rhmd:ignore and
# the baseline-ratchet policy.
lint:
	$(GO) run ./cmd/rhmd-lint -baseline .rhmd-lint-baseline.json -sarif rhmd-lint.sarif ./...

# Regenerate the lint baseline from the current tree. Only legitimate
# when adopting a newly-ratcheted analyzer over legacy findings — the
# baseline shrinks in review, it never grows.
lint-baseline:
	$(GO) run ./cmd/rhmd-lint -baseline .rhmd-lint-baseline.json -write-baseline ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# -shuffle=on randomizes test and subtest order so accidental
# inter-test coupling (shared globals, leftover files) surfaces here
# instead of in a flaky CI run months later.
race:
	$(GO) test -race -shuffle=on ./...

# Smoke-run every benchmark once: catches bit-rotted benchmarks and
# regressions that crash, without the cost of a timed run.
bench:
	$(GO) test -run '^$$' -bench=. -benchtime=1x ./...

# Scenario benchrunner: replay the core load scenarios and emit
# machine-readable BENCH_<scenario>.json reports (throughput, latency
# percentiles, shed/retry/restart counters, allocs/op) into results/.
# The steady scenario is gated against the committed BENCH_baseline.json
# — a >10% throughput drop fails the target, and CI with it. The other
# scenarios are artifacts only (fault-heavy runs are too noisy to gate).
benchjson:
	mkdir -p results
	$(GO) run ./cmd/rhmd-benchrunner -scenario steady -out results -baseline BENCH_baseline.json
	$(GO) run ./cmd/rhmd-benchrunner -scenario burst,hotkey,breaker-storm -out results

# End-to-end smoke for verdict span tracing: boot rhmd-monitor with
# -trace-verdicts, scrape /traces and /metrics, and fail unless the kept
# set is non-empty, the sampler's kept counter agrees, and shard 0's
# verdict-latency series has observations — on one shard and on two.
# CI runs this in the bench job so the tracing pipeline stays wired,
# not just unit-tested.
trace-smoke:
	./scripts/trace_smoke.sh -shards 1
	./scripts/trace_smoke.sh -shards 2

# Short fuzzing pass over the decoders of bytes from disk or flags. Plain
# `go test` only replays the seed corpora; this target mutates inputs,
# and CI runs it in its own job.
fuzz:
	$(GO) test -run FuzzLoadRHMD -fuzz FuzzLoadRHMD -fuzztime 30s ./internal/core/
	$(GO) test -run FuzzLoadCheckpoint -fuzz FuzzLoadCheckpoint -fuzztime 30s ./internal/checkpoint/
	$(GO) test -run FuzzParseObjectives -fuzz FuzzParseObjectives -fuzztime 30s ./internal/obs/slo/
	$(GO) test -run FuzzLoadIncident -fuzz FuzzLoadIncident -fuzztime 30s ./internal/obs/incident/

# Durability suite: every-byte-boundary crash injection, corruption
# fallback, and the SIGKILL-and-restart recovery test, under -race.
crashtest:
	$(GO) test -race -run 'Crash|Corrupt|Kill|Torn|Fallback|Trailer' -v ./internal/checkpoint/ ./internal/monitor/

# Kill-a-shard chaos suite, under -race: scripted shard deaths (dead
# disk, wedged queue, crashed worker) plus restore-under-load, proving
# surviving shards keep serving, the dead shard restarts from its own
# checkpoint with zero acked-verdict loss, and the health endpoint
# reports the degraded→serving transition. The crash scenario writes
# its final fleet-health JSON to FLEET_HEALTH_OUT (CI uploads it).
chaostest:
	FLEET_HEALTH_OUT=$(CURDIR)/fleet-health.json \
	INCIDENT_OUT=$(CURDIR)/results/incidents \
		$(GO) test -race -run 'Chaos|RestoreUnderLoad|FleetSingleShard' -v ./internal/fleet/

# Live drift-guard suite, under -race: the online evade→drift→retrain→
# hot-swap→canary loop end to end (zero acked-verdict loss), the
# injected-canary-regression rollback, swap-under-load and the
# every-byte-boundary crash sweep over the pool-swap WAL entry, the
# SIGKILL-mid-swap restart, and fleet-wide swap convergence. The e2e run
# writes its machine-readable outcome to DRIFT_REPORT_OUT (CI uploads it).
drifttest:
	DRIFT_REPORT_OUT=$(CURDIR)/drift-report.json \
	INCIDENT_OUT=$(CURDIR)/results/incidents \
		$(GO) test -race -v ./internal/driftguard/
	$(GO) test -race -run 'Swap' -v ./internal/monitor/ ./internal/fleet/
	$(GO) test -race -run 'RetrainPool' -v ./internal/game/

check: fmt vet lint build race

clean:
	$(GO) clean ./...
