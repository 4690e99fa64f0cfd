#!/bin/sh
# trace_smoke.sh — end-to-end smoke for verdict span tracing: boot
# rhmd-monitor with -trace-verdicts on an ephemeral port, scrape
# /traces and /metrics during the -hold window, and fail unless the
# kept set is non-empty and shaped like span trees and shard 0's
# verdict-latency series has observations. Extra arguments go to the
# monitor, e.g. `scripts/trace_smoke.sh -shards 2`. Run via
# `make trace-smoke`.
set -eu

workdir="$(mktemp -d)"
trap 'status=$?; [ -n "${monpid:-}" ] && kill "$monpid" 2>/dev/null; rm -rf "$workdir"; exit $status' EXIT INT TERM

go build -o "$workdir/rhmd-monitor" ./cmd/rhmd-monitor

# Tiny corpus, keep-everything sampling, exemplars on, and a generous
# hold so the endpoint is still up when we scrape. -slow-ms 0 is not
# needed: -keep-every 1 already keeps every verdict.
"$workdir/rhmd-monitor" \
  -benign 2 -malware 2 -len 20000 \
  -trace-verdicts -keep-every 1 -exemplars \
  -metrics-addr 127.0.0.1:0 -hold 120s "$@" \
  >"$workdir/out.log" 2>"$workdir/err.log" &
monpid=$!

# The monitor prints the bound address once the endpoint is up; traces
# are complete once it announces the hold.
addr=""
for _ in $(seq 1 120); do
  if ! kill -0 "$monpid" 2>/dev/null; then
    echo "trace-smoke: monitor exited early" >&2
    cat "$workdir/out.log" "$workdir/err.log" >&2
    exit 1
  fi
  if grep -q 'holding observability endpoint' "$workdir/err.log" 2>/dev/null; then
    addr="$(sed -n 's|.*observability endpoint on http://\([^ ]*\).*|\1|p' "$workdir/out.log" "$workdir/err.log" | head -n 1)"
    [ -n "$addr" ] && break
  fi
  sleep 1
done
if [ -z "$addr" ]; then
  echo "trace-smoke: monitor never announced its observability endpoint" >&2
  cat "$workdir/out.log" "$workdir/err.log" >&2
  exit 1
fi

traces="$workdir/traces.json"
curl -fsS "http://$addr/traces" >"$traces"

# Non-empty kept set with the span-tree fields present.
grep -q '"trace_id"' "$traces" || { echo "trace-smoke: /traces has no kept traces" >&2; cat "$traces" >&2; exit 1; }
grep -q '"stage": *"verdict"' "$traces" || { echo "trace-smoke: no verdict root span on /traces" >&2; exit 1; }
grep -q '"stage": *"wal-fsync"\|"stage": *"classify"' "$traces" || { echo "trace-smoke: kept traces carry no stage spans" >&2; exit 1; }

# The sampler's own accounting must agree that something was kept.
metrics="$workdir/metrics.txt"
curl -fsS "http://$addr/metrics" >"$metrics"
kept="$(sed -n 's/^rhmd_verdict_traces_kept_total \([0-9]*\)$/\1/p' "$metrics")"
if [ -z "$kept" ] || [ "$kept" -eq 0 ]; then
  echo "trace-smoke: rhmd_verdict_traces_kept_total is ${kept:-missing}" >&2
  exit 1
fi

# Shard engines' series reach /metrics through the fleet registry.
verdicts="$(sed -n 's/^rhmd_monitor_verdict_latency_seconds_count{shard="0"} \([0-9]*\)$/\1/p' "$metrics")"
if [ -z "$verdicts" ] || [ "$verdicts" -eq 0 ]; then
  echo "trace-smoke: rhmd_monitor_verdict_latency_seconds_count{shard=\"0\"} is ${verdicts:-missing}" >&2
  exit 1
fi

count="$(grep -c '"trace_id"' "$traces")"
echo "trace-smoke: OK${*:+ ($*)}: $count kept traces on /traces, kept counter $kept, shard 0 latency count $verdicts"
