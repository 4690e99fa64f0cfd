package monitor

import (
	"context"
	"errors"
	"testing"
	"time"

	"rhmd/internal/core"
	"rhmd/internal/features"
)

// injectorFunc adapts a function to FaultInjector, for tests that script
// faults by exact (detector, window, attempt).
type injectorFunc func(FaultContext) Fault

func (f injectorFunc) Fault(fc FaultContext) Fault { return f(fc) }

// newTestEngine builds an engine over the fixture pool; it is not
// started.
func newTestEngine(t testing.TB, cfg Config) *Engine {
	t.Helper()
	r, err := core.New(getFixture(t).pool, 0xFEED)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(r, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestClassifyOncePanicIsWindowError(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 1})
	fc := FaultContext{Detector: 3, ProgName: "p"}
	score := func([]float64) float64 { panic("model bug") }
	if _, err := e.classifyOnce(context.Background(), fc, Fault{}, score, 0.5, []float64{1}); err == nil {
		t.Fatal("panicking detector returned no error")
	}
	if got := e.Stats().Panics; got != 1 {
		t.Fatalf("panics %d, want 1", got)
	}
}

func TestClassifyOnceChecksDeadlineAfterCall(t *testing.T) {
	// Roomy enough that the prompt call cannot miss it on a loaded box.
	const deadline = 100 * time.Millisecond
	e := newTestEngine(t, Config{Workers: 1, WindowDeadline: deadline})
	slow := func([]float64) float64 { time.Sleep(2 * deadline); return 1 }
	if _, err := e.classifyOnce(context.Background(), FaultContext{}, Fault{}, slow, 0.5, []float64{1}); !errors.Is(err, ErrDeadline) {
		t.Fatalf("late detector: err %v, want ErrDeadline", err)
	}
	fast := func([]float64) float64 { return 1 }
	dec, err := e.classifyOnce(context.Background(), FaultContext{}, Fault{}, fast, 0.5, []float64{1})
	if err != nil || dec != 1 {
		t.Fatalf("prompt detector: dec %d err %v", dec, err)
	}
}

func TestClassifyOnceCancelDuringLatencyStall(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 1, WindowDeadline: time.Millisecond})
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(10*time.Millisecond, cancel)
	start := time.Now()
	score := func([]float64) float64 { return 1 }
	_, err := e.classifyOnce(ctx, FaultContext{}, Fault{Kind: FaultLatency, Latency: time.Minute}, score, 0.5, []float64{1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Fatalf("stall outlived cancellation by %v", d)
	}
}

func TestInlinePanicKeepsWorker(t *testing.T) {
	// Every first attempt panics: each window is retried and classified,
	// every panic is counted, and the single worker serves the whole
	// corpus.
	f := getFixture(t)
	in := injectorFunc(func(fc FaultContext) Fault {
		if fc.Attempt == 0 {
			return Fault{Kind: FaultPanic}
		}
		return Fault{}
	})
	e := newTestEngine(t, Config{Workers: 1, QueueDepth: len(f.programs), TraceLen: f.traceLen,
		WindowDeadline: 2 * time.Second, Injector: in})
	reports := runStream(t, e, f.programs)
	st := e.Stats()
	if len(reports) != len(f.programs) || st.ProgramsFailed != 0 {
		t.Fatalf("%d reports for %d programs, stats %+v", len(reports), len(f.programs), st)
	}
	if st.Panics != st.Windows || st.Retries != st.Windows || st.Windows == 0 {
		t.Fatalf("windows %d, panics %d, retries %d: want one panic and one retry per window",
			st.Windows, st.Panics, st.Retries)
	}
	if st.WorkerCrashes != 0 {
		t.Fatalf("detector panics crashed %d workers", st.WorkerCrashes)
	}
}

func TestInlineLatencyTimesOutThenRetries(t *testing.T) {
	// One stall past the deadline on the first window's first attempt:
	// a timeout, one retry, and the window is still classified by the
	// scheduled detector. Every other attempt must beat the deadline,
	// so it is roomy.
	const deadline = 100 * time.Millisecond
	f := getFixture(t)
	in := injectorFunc(func(fc FaultContext) Fault {
		if fc.Window == 0 && fc.Attempt == 0 {
			return Fault{Kind: FaultLatency, Latency: 3 * deadline}
		}
		return Fault{}
	})
	e := newTestEngine(t, Config{Workers: 1, TraceLen: f.traceLen, WindowDeadline: deadline, Injector: in})
	reports := runStream(t, e, f.programs[:1])
	rep := reports[f.programs[0].Name]
	st := e.Stats()
	if rep.Err != nil || rep.Windows == 0 || rep.Degraded != 0 || rep.Dropped != 0 {
		t.Fatalf("report %+v", rep)
	}
	if st.Timeouts != 1 || st.Retries != 1 {
		t.Fatalf("timeouts %d retries %d, want 1 and 1", st.Timeouts, st.Retries)
	}
}

func TestInlineWorkerCrashKillsWorker(t *testing.T) {
	f := getFixture(t)
	crashed := make(chan error, 1)
	in := injectorFunc(func(FaultContext) Fault { return Fault{Kind: FaultWorkerCrash} })
	e := newTestEngine(t, Config{Workers: 1, TraceLen: f.traceLen, Injector: in,
		OnWorkerCrash: func(err error) { crashed <- err }})
	e.Start(context.Background())
	defer e.Close()
	if !e.Submit(f.programs[0]) {
		t.Fatal("submit shed")
	}
	select {
	case <-crashed:
	case <-time.After(30 * time.Second):
		t.Fatal("worker crash never reported")
	}
	// The crash callback runs before the worker's deferred gauge update.
	deadline := time.Now().Add(5 * time.Second)
	for e.Stats().WorkersLive != 0 {
		if time.Now().After(deadline) {
			t.Fatal("crashed worker still counted live")
		}
		time.Sleep(time.Millisecond)
	}
	if st := e.Stats(); st.WorkerCrashes != 1 {
		t.Fatalf("worker crashes %d, want 1", st.WorkerCrashes)
	}
}

// BenchmarkClassifyAttempt sends one window through classify: the
// per-window cost of scoring with a trained LR detector, fault handling
// and breaker accounting, without extraction.
func BenchmarkClassifyAttempt(b *testing.B) {
	f := getFixture(b)
	e := newTestEngine(b, Config{Workers: 1, TraceLen: f.traceLen})
	g := e.pool.Load()
	const idx = 0
	p := f.programs[0]
	period := g.rhmd.Detectors[idx].Spec.Period
	ws, err := features.ExtractScheduled(p, func() int { return period }, f.traceLen)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.classify(ctx, g, p, ws, i%ws.Windows, idx, nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}
