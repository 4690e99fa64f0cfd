package main

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"rhmd/internal/core"
	"rhmd/internal/dataset"
	"rhmd/internal/features"
	"rhmd/internal/fleet"
	"rhmd/internal/monitor"
	"rhmd/internal/obs"
	"rhmd/internal/obs/span"
)

// Training mirrors rhmd-monitor's defaults: seed 42, 10 benign and 16
// malware programs per family at 80k instructions, a 70/30 split, and
// six LR detectors over {instructions, memory, architectural} ×
// periods {2000, 1000}.
const (
	trainSeed    = 42
	trainBenign  = 10
	trainMalware = 16
	trainLen     = 80_000
)

var trainPeriods = []int{2000, 1000}

// queueDepth is each shard's submission queue. It is deep enough that
// the open-loop load never sheds, so a stall shows as latency of the
// programs queued behind it rather than as refusals.
const queueDepth = 4096

// trainPool trains the pool rhmd-monitor deploys.
func trainPool() (*core.RHMD, error) {
	corpus, err := dataset.Build(dataset.Config{BenignPerFamily: trainBenign, MalwarePerFamily: trainMalware, TraceLen: trainLen, Seed: trainSeed})
	if err != nil {
		return nil, fmt.Errorf("building training corpus: %w", err)
	}
	groups, err := corpus.Split([]float64{0.7, 0.3}, trainSeed+1)
	if err != nil {
		return nil, fmt.Errorf("splitting training corpus: %w", err)
	}
	data := map[int]*dataset.MultiWindowData{}
	for _, p := range trainPeriods {
		mw, err := dataset.ExtractWindows(groups[0], p, trainLen)
		if err != nil {
			return nil, fmt.Errorf("extracting training windows: %w", err)
		}
		data[p] = mw
	}
	pool, err := core.TrainPool(core.PoolSpecs(features.AllKinds(), trainPeriods, "lr"), data, trainSeed+2)
	if err != nil {
		return nil, fmt.Errorf("training pool: %w", err)
	}
	return core.New(pool, trainSeed+3)
}

// buildFleet builds and starts the workload's fleet over pool, with its
// checkpoint stores under dir when the workload is durable. spans, when
// set, replaces the workload's own span recorder (the traced run's
// keep-all recorder).
func buildFleet(ctx context.Context, w *workload, pool *core.RHMD, dir string, spans *span.Recorder) (*fleet.Fleet, error) {
	workers := w.workers
	if workers == 0 {
		workers = runtime.NumCPU()
	}
	cfg := fleet.Config{
		Shards: w.shards,
		Engine: monitor.Config{Workers: workers, QueueDepth: queueDepth, TraceLen: w.traceLen, Spans: spans},
	}
	if w.durable {
		cfg.CheckpointDir = dir
		cfg.Engine.Tracer = obs.NewTracer(4096)
		if cfg.Engine.Spans == nil {
			rec, err := span.NewRecorder(span.Config{Seed: trainSeed, Now: time.Now}, nil)
			if err != nil {
				return nil, err
			}
			cfg.Engine.Spans = rec
		}
	}
	f, err := fleet.New(pool, cfg)
	if err != nil {
		return nil, err
	}
	f.Start(ctx)
	return f, nil
}

// setup is one measured set-up: train the pool, build the fleet and
// Start it (durable shards open their checkpoint stores in fleet.New).
func setup(ctx context.Context, w *workload, dir string) (*core.RHMD, *fleet.Fleet, time.Duration, error) {
	t := time.Now()
	pool, err := trainPool()
	if err != nil {
		return nil, nil, 0, err
	}
	f, err := buildFleet(ctx, w, pool, dir, nil)
	if err != nil {
		return nil, nil, 0, err
	}
	return pool, f, time.Since(t), nil
}

// drain closes a fleet and waits until its result stream has closed.
func drain(f *fleet.Fleet) {
	f.Close()
	for range f.Results() {
	}
}

// Phases of a run; every slot belongs to one.
const (
	phaseDigest = iota
	phaseClosed
	phaseOpen
)

// slot is one submission and what became of it. Times are nanoseconds
// since the run's clock origin. A slot holds no pointers, so the run's
// record of tens of thousands of submissions costs the garbage collector
// nothing to scan while the fleet is being measured.
type slot struct {
	set      int8 // index into runRecord.sets
	phase    int8
	traced   bool
	accepted bool
	failed   bool // the report carried an error
	malware  bool
	shard    int16
	dups     int16
	idx      int32 // event index within its input set
	windows  int32
	flagged  int32
	degraded int32
	dropped  int32
	due      int64 // intended send time (open loop)
	sent     int64
	recv     int64 // 0 until the verdict arrives
}

func (s *slot) verdict() verdict {
	return verdict{Windows: int(s.windows), Flagged: int(s.flagged), Malware: s.malware}
}

// runRecord holds every submission of a run, across fleets. Each input
// set's events are submitted in index order, so event i of set k sits at
// offset[k]+i and a verdict finds its slot from its program name alone.
type runRecord struct {
	t0   time.Time
	sets []*inputs

	mu       sync.Mutex
	slots    []slot
	offset   []int
	accepted int
	received int
	strays   int    // verdicts for no submitted program
	firstErr string // the first report error
	spans    *benchSpans
}

func newRunRecord(sets ...*inputs) *runRecord {
	r := &runRecord{t0: time.Now(), sets: sets, spans: &benchSpans{}}
	for k, in := range sets {
		in.tag = strconv.Itoa(k) + "."
		r.offset = append(r.offset, -1)
	}
	return r
}

func (r *runRecord) now() int64 { return int64(time.Since(r.t0)) }

// event regenerates the event a slot was submitted with.
func (r *runRecord) event(s *slot) event { return r.sets[s.set].event(int(s.idx)) }

// locate maps a program name "<stream>#<set>.<base>-<i>" to its slot
// position, or -1. Callers hold mu.
func (r *runRecord) locate(name string) int {
	h := strings.IndexByte(name, '#')
	dot := strings.IndexByte(name, '.')
	dash := strings.LastIndexByte(name, '-')
	if h < 0 || dot < h || dash < dot {
		return -1
	}
	set, err1 := strconv.Atoi(name[h+1 : dot])
	idx, err2 := strconv.Atoi(name[dash+1:])
	if err1 != nil || err2 != nil || set < 0 || set >= len(r.offset) || r.offset[set] < 0 {
		return -1
	}
	if pos := r.offset[set] + idx; pos < len(r.slots) && int(r.slots[pos].idx) == idx {
		return pos
	}
	return -1
}

// feeder feeds one fleet and collects its verdicts into the run record.
type feeder struct {
	rec   *runRecord
	f     *fleet.Fleet
	trace bool // record a bench span around every Submit

	tokens chan struct{}
	done   chan struct{}
}

// attach starts collecting f's verdicts. tokens holds one slot per
// outstanding closed-loop program (nproc).
func (r *runRecord) attach(f *fleet.Fleet, trace bool) *feeder {
	d := &feeder{rec: r, f: f, trace: trace, tokens: make(chan struct{}, runtime.NumCPU()), done: make(chan struct{})}
	go d.collect()
	return d
}

func (d *feeder) collect() {
	defer close(d.done)
	for rep := range d.f.Results() {
		now := d.rec.now()
		d.rec.record(rep, now)
		select {
		case d.tokens <- struct{}{}:
		default:
		}
	}
}

// record stores a verdict in its slot.
func (r *runRecord) record(rep monitor.Report, now int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	pos := r.locate(rep.Program)
	if pos < 0 {
		r.strays++
		return
	}
	s := &r.slots[pos]
	if s.recv != 0 {
		s.dups++
		return
	}
	s.recv = now
	s.windows, s.flagged, s.malware = int32(rep.Windows), int32(rep.Flagged), rep.Malware
	s.degraded, s.dropped, s.shard = int32(rep.Degraded), int32(rep.Dropped), int16(rep.Shard)
	if rep.Err != nil {
		s.failed = true
		if r.firstErr == "" {
			r.firstErr = rep.Program + ": " + rep.Err.Error()
		}
	}
	r.received++
}

// submit offers event idx of input set k and records the outcome.
func (d *feeder) submit(k, idx, phase int, due int64) {
	r := d.rec
	ev := r.sets[k].event(idx)
	r.mu.Lock()
	if r.offset[k] < 0 {
		r.offset[k] = len(r.slots) - idx
	}
	if r.offset[k]+idx != len(r.slots) {
		r.mu.Unlock()
		panic(fmt.Sprintf("event %d of input set %d submitted out of order", idx, k))
	}
	r.slots = append(r.slots, slot{set: int8(k), idx: int32(idx), phase: int8(phase), traced: d.trace, due: due})
	pos := len(r.slots) - 1
	r.mu.Unlock()
	var sp *benchSpan
	if d.trace {
		sp = r.spans.start("fleet.Submit", nil)
	}
	sent := r.now()
	ok := d.f.Submit(ev.p)
	r.spans.end(sp, 1)
	r.mu.Lock()
	r.slots[pos].sent, r.slots[pos].accepted = sent, ok
	if ok {
		r.accepted++
	}
	r.mu.Unlock()
}

// outstanding counts accepted submissions still waiting for a verdict.
func (r *runRecord) outstanding() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.accepted - r.received
}

// settle waits until every accepted submission has its verdict, or the
// limit passes (the missing ones are then counted as failures).
func (r *runRecord) settle(limit time.Duration) {
	end := time.Now().Add(limit)
	for r.outstanding() > 0 && time.Now().Before(end) {
		time.Sleep(time.Millisecond)
	}
}

// settleLimit bounds how long a phase waits for its last verdicts.
const settleLimit = 30 * time.Second

// runBatch submits the first n events of input set k at once and waits
// for their verdicts.
func (d *feeder) runBatch(k, n, phase int) {
	for i := 0; i < n; i++ {
		d.submit(k, i, phase, 0)
	}
	d.rec.settle(settleLimit)
}

// runClosed keeps nproc programs of input set k outstanding for dur, or
// until max events are sent, starting at event index next. It returns
// the segment's measured interval and the next unused event index.
func (d *feeder) runClosed(k, next int, dur time.Duration, max int) (interval, int) {
	for len(d.tokens) > 0 {
		<-d.tokens
	}
	for i := 0; i < cap(d.tokens); i++ {
		d.tokens <- struct{}{}
	}
	timer := time.NewTimer(dur)
	defer timer.Stop()
	iv := interval{start: d.rec.now()}
	for sent := 0; sent < max; sent++ {
		select {
		case <-d.tokens:
		case <-timer.C:
			iv.end = d.rec.now()
			d.rec.settle(settleLimit)
			return iv, next
		}
		d.submit(k, next, phaseClosed, 0)
		next++
	}
	iv.end = d.rec.now()
	d.rec.settle(settleLimit)
	return iv, next
}

// runOpen sends events of input set k on a fixed schedule of rate per
// second for dur, each stamped with its intended send time, and returns
// the next unused event index.
func (d *feeder) runOpen(k, next int, dur time.Duration, rate float64) int {
	n := int(dur.Seconds() * rate)
	start := d.rec.now()
	for i := 0; i < n; i++ {
		due := start + int64(float64(i)*1e9/rate)
		if wait := due - d.rec.now(); wait > 0 {
			time.Sleep(time.Duration(wait))
		}
		d.submit(k, next, phaseOpen, due)
		next++
	}
	d.rec.settle(settleLimit)
	return next
}

// stop closes the fleet and waits until the collector has read its
// last verdict.
func (d *feeder) stop() {
	d.f.Close()
	<-d.done
}
