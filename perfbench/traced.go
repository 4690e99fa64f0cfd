package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"rhmd/internal/core"
	"rhmd/internal/fleet"
	"rhmd/internal/obs/span"
)

// tracedClosedMax bounds the traced closed-loop phase, and with it the
// memory the keep-all span recorder holds.
const tracedClosedMax = 1 << 14

// tracedRun is the second fleet of a traced run: the workload's fleet
// with a keep-all span recorder, run closed loop (for the tracing
// overhead) and then open loop at the workload's rate (for the stage
// breakdown).
type tracedRun struct {
	f          *fleet.Fleet
	dir        string
	spans      *span.Recorder
	closed     interval
	throughput float64
	probe      map[string]float64
}

// runTraced is the traced run, after set-up and the digest prefix: an
// untraced closed-loop segment on the workload's fleet (d), then the
// keep-all traced fleet closed and open loop, then the layer probes. It
// prints the per-layer metrics.
func runTraced(ctx context.Context, o options, w *workload, env *envRecord, pool *core.RHMD, rec *runRecord, d *feeder, dir, work string) (*result, *envRecord, error) {
	half := time.Duration(o.seconds / 2 * float64(time.Second))
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	base, next := d.runClosed(1, 0, half, math.MaxInt)
	runtime.ReadMemStats(&ms1)
	d.stop()
	restoreErr := checkRestore(ctx, w, pool, dir, rec, false)

	open := int(half.Seconds()*w.rate) + 1
	rs, err := span.NewRecorder(span.Config{Seed: trainSeed, Now: time.Now, KeepEvery: 1, Capacity: tracedClosedMax + open + 256}, nil)
	if err != nil {
		return nil, nil, err
	}
	t := &tracedRun{dir: filepath.Join(work, "traced"), spans: rs}
	if t.f, err = buildFleet(ctx, w, pool, t.dir, rs); err != nil {
		return nil, nil, err
	}
	td := rec.attach(t.f, true)
	t.closed, next = td.runClosed(1, next, half, tracedClosedMax)
	td.runOpen(1, next, half, w.rate)
	td.stop()
	if restoreErr == nil {
		restoreErr = checkRestore(ctx, w, pool, t.dir, rec, true)
	}
	if t.probe, err = probes(rec.spans, w, rec.sets[1], pool, t.f, work); err != nil {
		return nil, nil, err
	}

	res, ok, err := verify(pool, rec, w, env, o.plantWrong, restoreErr)
	if err != nil {
		return nil, nil, err
	}
	m, err := t.metrics(pool, rec, ok, filepath.Join(o.work, "spans-"+w.name+".json"))
	if err != nil {
		return nil, nil, err
	}
	verdicts := float64(countDelivered(rec.slots, false, phaseClosed))
	m["runtime.allocs_per_verdict"] = float64(ms1.Mallocs-ms0.Mallocs) / verdicts
	m["runtime.alloc_bytes_per_verdict"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / verdicts
	m["runtime.gc_per_1k_verdicts"] = float64(ms1.NumGC-ms0.NumGC) * 1000 / verdicts
	m["obs.span_overhead_ratio"] = t.throughput / throughput(rec.slots, ok, false, []interval{base}, false)
	m["failed_ratio"] = float64(res.Failed) / float64(res.Attempted)
	for k, v := range fleetCounters([]*fleet.Fleet{d.f, t.f}) {
		m[k] = v
	}
	m["fleet.hot_shard_share"] = hotShardShare(rec.slots)
	_, lag := openLatency(rec.slots, ok, true, rec.now(), nil)
	env.SendLagMs = quantile(lag, 0.99) / 1e6
	m["loadgen.send_lag_p99_ms"] = env.SendLagMs
	for name := range perLayerUnits {
		v, found := m[name]
		if !found {
			return nil, nil, fmt.Errorf("traced run did not measure %s", name)
		}
		res.put(perLayerUnits, name, v)
	}
	return res, env, nil
}

// metrics derives the traced fleet's per-layer metrics: throughput under
// keep-all tracing, and the engine's stage spans of the open-loop phase.
// The spans are written to path.
func (t *tracedRun) metrics(pool *core.RHMD, rec *runRecord, ok []bool, path string) (map[string]float64, error) {
	m := map[string]float64{}
	for k, v := range t.probe {
		m[k] = v
	}
	t.throughput = throughput(rec.slots, ok, true, []interval{t.closed}, false)
	programs := map[string]bool{}
	for i := range rec.slots {
		if s := &rec.slots[i]; s.traced && s.phase == phaseOpen {
			programs[rec.event(s).p.Name] = true
		}
	}
	var kept []*span.KeptTrace
	for _, kt := range t.spans.Snapshot() {
		if programs[kt.Program] {
			kept = append(kept, kt)
		}
	}
	if len(kept) == 0 {
		return nil, fmt.Errorf("the keep-all recorder kept no open-loop verdict traces")
	}
	st := stageDurations(kept)
	m["monitor.queue_wait_p50_ms"] = quantile(st[span.StageQueueWait], 0.5) / 1e6
	m["monitor.queue_wait_p99_ms"] = quantile(st[span.StageQueueWait], 0.99) / 1e6
	m["monitor.service_p50_ms"] = quantile(st[span.StageWorker], 0.5) / 1e6
	m["monitor.vote_us"] = quantile(st[span.StageVote], 0.5) / 1e3
	m["monitor.wal_fsync_p50_us"] = quantile(st[span.StageWALFsync], 0.5) / 1e3
	m["monitor.wal_fsync_p99_us"] = quantile(st[span.StageWALFsync], 0.99) / 1e3
	m["monitor.features_share"] = sum(st[span.StageFeatures]) / sum(st[span.StageWorker])
	// A classify span has no children, so its self time is its whole
	// duration; the overhead is what remains after the detector's score.
	var over float64
	var n int
	for _, kt := range kept {
		for _, s := range kt.Spans {
			if s.Stage == span.StageClassify && s.Detector >= 0 {
				over += float64(s.Dur) - m["hmd.score_ns."+pool.Detectors[s.Detector].Spec.Kind.String()]
				n++
			}
		}
	}
	m["monitor.classify_overhead_us"] = over / float64(max(n, 1)) / 1e3
	m["fleet.submit_p99_us"] = quantile(rec.spans.durations("fleet.Submit"), 0.99) / 1e3
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	if err := writeSpans(path, rec.spans.spans, kept); err != nil {
		return nil, err
	}
	return m, nil
}
