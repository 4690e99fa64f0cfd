package main

import (
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"rhmd/internal/checkpoint"
	"rhmd/internal/core"
	"rhmd/internal/features"
	"rhmd/internal/fleet"
	"rhmd/internal/hmd"
	"rhmd/internal/monitor"
	"rhmd/internal/obs"
	"rhmd/internal/obs/span"
	"rhmd/internal/trace"
	"rhmd/internal/uarch"
)

// probeInstructions is how many simulated instructions each simulation
// probe covers; the program count follows from the trace length.
const probeInstructions = 4_000_000

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink struct {
	outcome uarch.Outcome
	score   float64
	draw    int
}

// probes times calls into each layer's public functions, on the
// workload's own programs, pool and filesystem, recording a bench span
// around every call. It returns the per-layer metrics they give.
func probes(b *benchSpans, w *workload, in *inputs, pool *core.RHMD, f *fleet.Fleet, work string) (map[string]float64, error) {
	m := map[string]float64{}
	n := probeInstructions / w.traceLen
	live := make([]bool, pool.Size())
	for i := range live {
		live[i] = true
	}
	cat, err := pool.LiveSampler(live)
	if err != nil {
		return nil, err
	}
	var rows [features.NumKinds][][]float64
	var windows, useful int
	for i := 0; i < n; i++ {
		p := in.event(i).p
		root := b.start("program", nil)
		var evs []trace.Event
		var execErr error
		b.timed("trace.Exec", root, func() int64 {
			st, err := trace.Exec(p, trace.Config{MaxInstructions: w.traceLen}, trace.SinkFunc(func(*trace.Event) {}))
			execErr = err
			return int64(st.Total)
		})
		if execErr != nil {
			return nil, execErr
		}
		if _, err := trace.Exec(p, trace.Config{MaxInstructions: w.traceLen}, trace.SinkFunc(func(e *trace.Event) { evs = append(evs, *e) })); err != nil {
			return nil, err
		}
		pipe := uarch.NewDefaultPipeline()
		b.timed("uarch.Pipeline.Process", root, func() int64 {
			for j := range evs {
				sink.outcome = pipe.Process(&evs[j])
			}
			return int64(len(evs))
		})
		src := pool.SwitchSource(p)
		next := func() int { return pool.Detectors[cat.Sample(src)].Spec.Period }
		var ws *features.WindowSet
		b.timed("features.ExtractScheduled", root, func() int64 {
			ws, execErr = features.ExtractScheduled(p, next, w.traceLen)
			return int64(w.traceLen)
		})
		if execErr != nil {
			return nil, execErr
		}
		windows += ws.Windows
		for _, bd := range ws.Bounds {
			useful += bd[1] - bd[0]
		}
		for k := range rows {
			rows[k] = append(rows[k], ws.Vectors[k]...)
		}
		b.timed("core.RHMD.DecideTrace", root, func() int64 {
			_, execErr = pool.DecideTrace(p, w.traceLen)
			return 1
		})
		if execErr != nil {
			return nil, execErr
		}
		b.end(root, 1)
	}
	exec := b.perUnit("trace.Exec")
	process := b.perUnit("uarch.Pipeline.Process")
	extract := b.perUnit("features.ExtractScheduled")
	m["trace.exec_ns_per_instr"] = exec
	m["uarch.process_ns_per_event"] = process
	m["features.extract_ns_per_instr"] = extract
	m["features.self_ns_per_instr"] = extract - exec - process
	m["features.windows_per_verdict"] = float64(windows) / float64(n)
	m["features.useful_instr_ratio"] = float64(useful) / float64(n*w.traceLen)
	m["core.decide_ms"] = b.perUnit("core.RHMD.DecideTrace") / 1e6

	src := pool.SwitchSource(in.event(0).p)
	const draws = 200_000
	b.timed("rng.Categorical.Sample", nil, func() int64 {
		for i := 0; i < draws; i++ {
			sink.draw = cat.Sample(src)
		}
		return draws
	})
	m["core.draw_ns"] = b.perUnit("rng.Categorical.Sample")

	for _, k := range features.AllKinds() {
		name := "hmd.Detector.ScoreWindow." + k.String()
		d, err := detectorOf(pool, k)
		if err != nil {
			return nil, err
		}
		calls := 0
		s := b.start(name, nil)
		for calls < 50_000 {
			for _, v := range rows[k] {
				sink.score = d.ScoreWindow(v)
			}
			calls += len(rows[k])
		}
		b.end(s, int64(calls))
		m["hmd.score_ns."+k.String()] = b.perUnit(name)
	}

	if err := storeProbes(b, m, pool, work); err != nil {
		return nil, err
	}

	names := make([]string, 0, 1024)
	for i := 0; i < cap(names); i++ {
		names = append(names, in.event(i).p.Name)
	}
	const homes = 200_000
	b.timed("fleet.Fleet.Home", nil, func() int64 {
		for i := 0; i < homes; i++ {
			sink.draw = f.Home(names[i%len(names)])
		}
		return homes
	})
	m["fleet.home_ns"] = b.perUnit("fleet.Fleet.Home")

	if err := obsProbes(b, m, names, m["features.windows_per_verdict"]); err != nil {
		return nil, err
	}
	const scrapes = 50
	var scrapeErr error
	b.timed("obs.Registry.WritePrometheus", nil, func() int64 {
		for i := 0; i < scrapes && scrapeErr == nil; i++ {
			scrapeErr = f.Registry().WritePrometheus(io.Discard)
		}
		return scrapes
	})
	if scrapeErr != nil {
		return nil, scrapeErr
	}
	m["obs.scrape_ms"] = b.perUnit("obs.Registry.WritePrometheus") / 1e6
	return m, nil
}

// detectorOf returns the pool's first detector of kind k.
func detectorOf(pool *core.RHMD, k features.Kind) (*hmd.Detector, error) {
	for _, d := range pool.Detectors {
		if d.Spec.Kind == k {
			return d, nil
		}
	}
	return nil, fmt.Errorf("pool has no %s detector", k)
}

// walRecord is shaped like the engine's WAL verdict record.
type walRecord struct {
	Failed   bool `json:"failed"`
	Malware  bool `json:"malware"`
	Windows  int  `json:"windows"`
	Flagged  int  `json:"flagged"`
	Degraded int  `json:"degraded"`
	Dropped  int  `json:"dropped"`
}

// storeProbes times checkpoint.Store on the run's own filesystem: single
// appends, appends from nproc writers sharing one store, and snapshot
// saves of an engine-snapshot-sized payload.
func storeProbes(b *benchSpans, m map[string]float64, pool *core.RHMD, work string) error {
	rec, err := json.Marshal(walRecord{Malware: true, Windows: 40, Flagged: 21})
	if err != nil {
		return err
	}
	st, err := checkpoint.Open(filepath.Join(work, "probe-append"), checkpoint.Options{})
	if err != nil {
		return err
	}
	const appends = 1000
	for i := 0; i < appends; i++ {
		s := b.start("checkpoint.Store.Append", nil)
		err = st.Append(checkpoint.KindVerdict, rec)
		b.end(s, 1)
		if err != nil {
			st.Close()
			return fmt.Errorf("probe append: %w", err)
		}
	}
	lat := b.durations("checkpoint.Store.Append")
	m["checkpoint.append_p50_us"] = quantile(lat, 0.5) / 1e3
	m["checkpoint.append_p99_us"] = quantile(lat, 0.99) / 1e3

	writers := runtime.NumCPU()
	const perWriter = 300
	var wg sync.WaitGroup
	errs := make([]error, writers)
	s := b.start("checkpoint.Store.Append.parallel", nil)
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWriter && errs[g] == nil; i++ {
				errs[g] = st.Append(checkpoint.KindVerdict, rec)
			}
		}(g)
	}
	wg.Wait()
	b.end(s, int64(writers*perWriter))
	if err := st.Close(); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("probe append: %w", err)
		}
	}
	m["checkpoint.append_ops_s"] = 1e9 / b.perUnit("checkpoint.Store.Append.parallel")

	payload, err := snapshotPayload(pool)
	if err != nil {
		return err
	}
	st, err = checkpoint.Open(filepath.Join(work, "probe-save"), checkpoint.Options{})
	if err != nil {
		return err
	}
	const saves = 20
	for i := 0; i < saves; i++ {
		s := b.start("checkpoint.Store.Save", nil)
		_, err = st.Save(payload)
		b.end(s, 1)
		if err != nil {
			st.Close()
			return fmt.Errorf("probe save: %w", err)
		}
	}
	if err := st.Close(); err != nil {
		return err
	}
	m["checkpoint.save_ms"] = quantile(b.durations("checkpoint.Store.Save"), 0.5) / 1e6
	return nil
}

// snapshotPayload encodes the snapshot an engine over pool would save.
func snapshotPayload(pool *core.RHMD) ([]byte, error) {
	eng, err := monitor.New(pool, monitor.Config{})
	if err != nil {
		return nil, err
	}
	return json.Marshal(eng.SnapshotState())
}

// obsProbes times the telemetry primitives the engine calls per verdict.
func obsProbes(b *benchSpans, m map[string]float64, names []string, windows float64) error {
	h := obs.NewRegistry().Histogram("rhmd_probe_seconds", "Histogram.Observe probe.", obs.DefLatencyBuckets())
	const observes = 1_000_000
	b.timed("obs.Histogram.Observe", nil, func() int64 {
		for i := 0; i < observes; i++ {
			h.Observe(float64(i%5000) * 1e-6)
		}
		return observes
	})
	m["obs.histogram_observe_ns"] = b.perUnit("obs.Histogram.Observe")

	g := runtime.NumCPU()
	var wg sync.WaitGroup
	s := b.start("obs.Histogram.Observe.parallel", nil)
	for j := 0; j < g; j++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < observes/g; i++ {
				h.Observe(float64(i%5000) * 1e-6)
			}
		}()
	}
	wg.Wait()
	// Per call as each goroutine sees it: wall time over its share.
	b.end(s, int64(observes/g))
	m["obs.histogram_observe_parallel_ns"] = b.perUnit("obs.Histogram.Observe.parallel")

	tr := obs.NewTracer(4096)
	const emits = 200_000
	b.timed("obs.Tracer.Emit", nil, func() int64 {
		for i := 0; i < emits; i++ {
			tr.Emit(obs.Event{Kind: obs.EvExtract, Program: names[i%len(names)], Detector: -1, Window: -1,
				Dur: time.Duration(i), Detail: fmt.Sprintf("%d windows", i%64)})
		}
		return emits
	})
	m["obs.tracer_emit_ns"] = b.perUnit("obs.Tracer.Emit")

	nw := int(windows + 0.5)
	for _, c := range []struct {
		metric string
		keep   int
	}{{"obs.span_tree_us", 0}, {"obs.span_tree_keepall_us", 1}} {
		rec, err := span.NewRecorder(span.Config{Now: time.Now, KeepEvery: c.keep}, nil)
		if err != nil {
			return err
		}
		name := "span.Recorder." + c.metric
		const trees = 5000
		b.timed(name, nil, func() int64 {
			for i := 0; i < trees; i++ {
				verdictTree(rec, names[i%len(names)], nw)
			}
			return trees
		})
		m[c.metric] = b.perUnit(name) / 1e3
	}
	return nil
}

// verdictTree records the span tree the engine records for one verdict
// of nw windows.
func verdictTree(rec *span.Recorder, program string, nw int) {
	tr := rec.Start(program, span.StageVerdict)
	tr.EndSpan(tr.StartSpan(span.StageEnqueue, nil))
	wait := tr.StartSpan(span.StageQueueWait, nil)
	tr.EndSpan(wait)
	wk := tr.StartSpan(span.StageWorker, nil)
	feat := tr.StartSpan(span.StageFeatures, wk)
	for i := 0; i < nw; i++ {
		ds := tr.StartSpan(span.StageDraw, feat)
		ds.Detector, ds.Weight = i%6, 1.0/6
		tr.EndSpan(ds)
	}
	tr.EndSpan(feat)
	for i := 0; i < nw; i++ {
		cs := tr.StartSpan(span.StageClassify, wk)
		cs.Detector, cs.Window = i%6, i
		tr.EndSpan(cs)
	}
	tr.EndSpan(tr.StartSpan(span.StageVote, wk))
	tr.EndSpan(wk)
	tr.EndSpan(tr.StartSpan(span.StageWALFsync, nil))
	tr.SetVerdict("benign")
	tr.Finish()
}
