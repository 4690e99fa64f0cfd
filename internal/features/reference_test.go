package features

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"rhmd/internal/isa"
	"rhmd/internal/prog"
	"rhmd/internal/rng"
	"rhmd/internal/trace"
	"rhmd/internal/uarch"
)

// refExtractor is the straightforward per-instruction extractor the
// fused kernel replaced, kept as the reference it must match bit for
// bit. It is a plain trace.Sink, so Exec hands it one event at a time,
// and it runs a fresh pipeline through Pipeline.Process.
type refExtractor struct {
	nextLen func() int
	pipe    *uarch.Pipeline

	curLen   int
	start    int
	total    int
	count    int
	opCounts [isa.NumOps]float64
	memHist  [MemBins]float64
	memRefs  float64
	arch     [ArchDim]float64
	lastAddr uint64
	haveAddr bool

	out WindowSet
}

func (x *refExtractor) Event(e *trace.Event) {
	o := x.pipe.Process(e)

	x.opCounts[e.Op]++

	if o.IsMem {
		x.memRefs++
		if x.haveAddr {
			x.memHist[deltaBin(x.lastAddr, e.Addr)]++
		}
		x.lastAddr = e.Addr
		x.haveAddr = true
	}

	if o.IsBranch {
		x.arch[ArchBranches]++
		if o.Taken {
			x.arch[ArchTakenBranches]++
		}
		if o.Mispredict {
			x.arch[ArchMispredicts]++
		}
	}
	if o.IsMem {
		if o.L1Miss {
			x.arch[ArchL1Misses]++
		}
		if o.L2Miss {
			x.arch[ArchL2Misses]++
		}
		if o.Unaligned {
			x.arch[ArchUnaligned]++
		}
	}
	info := e.Op.Info()
	if info.Load {
		x.arch[ArchLoads]++
	}
	if info.Store {
		x.arch[ArchStores]++
	}
	switch info.Class {
	case isa.ClassCall:
		x.arch[ArchCalls]++
	case isa.ClassRet:
		x.arch[ArchReturns]++
	case isa.ClassSystem:
		x.arch[ArchSyscalls]++
	case isa.ClassStack:
		x.arch[ArchStackOps]++
	}

	x.count++
	x.total++
	if x.count >= x.curLen {
		x.flush()
	}
}

func (x *refExtractor) flush() {
	n := float64(x.count)
	iv := make([]float64, isa.NumOps)
	for i := range iv {
		iv[i] = x.opCounts[i] / n
	}
	mv := make([]float64, MemBins)
	if x.memRefs > 0 {
		for i := range mv {
			mv[i] = x.memHist[i] / x.memRefs
		}
	}
	av := make([]float64, ArchDim)
	for i := range av {
		av[i] = x.arch[i] / n
	}
	x.out.Vectors[Instructions] = append(x.out.Vectors[Instructions], iv)
	x.out.Vectors[Memory] = append(x.out.Vectors[Memory], mv)
	x.out.Vectors[Architectural] = append(x.out.Vectors[Architectural], av)
	x.out.Bounds = append(x.out.Bounds, [2]int{x.start, x.total})
	x.out.Windows++

	x.start = x.total
	x.count = 0
	x.curLen = x.nextLen()
	x.opCounts = [isa.NumOps]float64{}
	x.memHist = [MemBins]float64{}
	x.memRefs = 0
	x.arch = [ArchDim]float64{}
}

// refExtract is ExtractScheduled on the reference extractor (period > 0
// gives Extract's fixed-period WindowSet).
func refExtract(t testing.TB, p *prog.Program, period int, next func() int, maxInstr int) *WindowSet {
	t.Helper()
	x := &refExtractor{nextLen: next, curLen: next(), pipe: uarch.NewDefaultPipeline()}
	x.out.Period = period
	if _, err := trace.Exec(p, trace.Config{MaxInstructions: maxInstr}, x); err != nil {
		t.Fatal(err)
	}
	return &x.out
}

// sameWindowSet fails t unless got and want agree in every bit.
func sameWindowSet(t *testing.T, what string, got, want *WindowSet) {
	t.Helper()
	if got.Windows != want.Windows || got.Period != want.Period || len(got.Bounds) != len(want.Bounds) {
		t.Fatalf("%s: %d windows period %d, reference %d windows period %d",
			what, got.Windows, got.Period, want.Windows, want.Period)
	}
	for i := range want.Bounds {
		if got.Bounds[i] != want.Bounds[i] {
			t.Fatalf("%s: window %d bounds %v, reference %v", what, i, got.Bounds[i], want.Bounds[i])
		}
	}
	for k := range want.Vectors {
		if len(got.Vectors[k]) != len(want.Vectors[k]) {
			t.Fatalf("%s: %v has %d rows, reference %d", what, Kind(k), len(got.Vectors[k]), len(want.Vectors[k]))
		}
		for i, row := range want.Vectors[k] {
			if len(got.Vectors[k][i]) != len(row) {
				t.Fatalf("%s: %v row %d has %d features, reference %d", what, Kind(k), i, len(got.Vectors[k][i]), len(row))
			}
			for j, v := range row {
				if g := got.Vectors[k][i][j]; math.Float64bits(g) != math.Float64bits(v) {
					t.Fatalf("%s: %v window %d feature %d = %v, reference %v", what, Kind(k), i, j, g, v)
				}
			}
		}
	}
}

// countedSchedule returns a schedule drawing from lens with a seeded rng,
// and a pointer to its call count.
func countedSchedule(seed uint64, lens []int) (func() int, *int) {
	r := rng.New(seed)
	calls := 0
	return func() int {
		calls++
		return lens[r.Intn(len(lens))]
	}, &calls
}

// oraclePrograms returns one program per family plus, for every other
// family, a block-level injected variant (fixed-delta memory payloads
// and injected body instructions).
func oraclePrograms(t testing.TB) []*prog.Program {
	t.Helper()
	payload, err := prog.NewPayload([]isa.Op{isa.MOVLD, isa.XOR, isa.MOVST}, 4096)
	if err != nil {
		t.Fatal(err)
	}
	var out []*prog.Program
	for fi := range prog.AllFamilies() {
		p := genProgram(t, fi, uint64(900+fi))
		out = append(out, p)
		if fi%2 == 0 {
			out = append(out, prog.Inject(p, payload, prog.BlockLevel))
		}
	}
	return out
}

func TestExtractMatchesReference(t *testing.T) {
	// Programs run back to back, so every extraction after the first
	// reuses a pooled pipeline a different program dirtied.
	for pi, p := range oraclePrograms(t) {
		for _, n := range []int{20000, 20500, 80000} {
			for _, period := range []int{1000, 2000} {
				got, err := Extract(p, period, n)
				if err != nil {
					t.Fatal(err)
				}
				want := refExtract(t, p, period, func() int { return period }, n)
				sameWindowSet(t, p.Family+" fixed", got, want)
			}

			seed := uint64(7000 + 10*pi + n%7)
			next, calls := countedSchedule(seed, []int{1000, 2000})
			got, err := ExtractScheduled(p, next, n)
			if err != nil {
				t.Fatal(err)
			}
			refNext, refCalls := countedSchedule(seed, []int{1000, 2000})
			want := refExtract(t, p, 0, refNext, n)
			sameWindowSet(t, p.Family+" scheduled", got, want)
			if *calls != *refCalls {
				t.Fatalf("%s: schedule called %d times, reference %d", p.Family, *calls, *refCalls)
			}
		}
	}
}

func TestExtractMatchesReferenceShortWindows(t *testing.T) {
	// Windows of 1–40 instructions end inside nearly every block body,
	// at every offset, and several end inside one body.
	lens := make([]int, 40)
	for i := range lens {
		lens[i] = i + 1
	}
	for pi, p := range oraclePrograms(t) {
		next, calls := countedSchedule(uint64(pi), lens)
		got, err := ExtractScheduled(p, next, 20500)
		if err != nil {
			t.Fatal(err)
		}
		refNext, refCalls := countedSchedule(uint64(pi), lens)
		sameWindowSet(t, p.Family, got, refExtract(t, p, 0, refNext, 20500))
		if *calls != *refCalls {
			t.Fatalf("%s: schedule called %d times, reference %d", p.Family, *calls, *refCalls)
		}
	}
}

func TestExtractParallelMatchesSequential(t *testing.T) {
	// Concurrent extractions each get their own pooled pipeline.
	progs := oraclePrograms(t)
	want := make([]*WindowSet, len(progs))
	for i, p := range progs {
		want[i] = refExtract(t, p, 1000, func() int { return 1000 }, 20000)
	}
	got := make([]*WindowSet, len(progs))
	errs := make([]error, len(progs))
	done := make(chan struct{})
	for i, p := range progs {
		go func() {
			defer func() { done <- struct{}{} }()
			got[i], errs[i] = Extract(p, 1000, 20000)
		}()
	}
	for range progs {
		<-done
	}
	for i := range progs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		sameWindowSet(t, progs[i].Family, got[i], want[i])
	}
}

// TestExtractDigestPinned pins a hash of the features of the oracle
// programs, so a change that alters the reference and the kernel alike
// (the trace walker, the pipeline, the programs) still shows up.
func TestExtractDigestPinned(t *testing.T) {
	const want = 0xf4198b7546ca1bfe
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	hash := func(ws *WindowSet, calls int) {
		put(uint64(ws.Windows))
		put(uint64(ws.Period))
		put(uint64(calls))
		for _, bd := range ws.Bounds {
			put(uint64(bd[0]))
			put(uint64(bd[1]))
		}
		for k := range ws.Vectors {
			for _, row := range ws.Vectors[k] {
				for _, v := range row {
					put(math.Float64bits(v))
				}
			}
		}
	}
	payload, err := prog.NewPayload([]isa.Op{isa.MOVLD, isa.XOR, isa.MOVST}, 4096)
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	for fi := range prog.AllFamilies() {
		p := genProgram(t, fi, uint64(900+fi))
		for _, q := range []*prog.Program{p, prog.Inject(p, payload, prog.BlockLevel)} {
			for _, c := range []struct{ period, n int }{{1000, 20500}, {2000, 20000}} {
				ws, err := Extract(q, c.period, c.n)
				if err != nil {
					t.Fatal(err)
				}
				hash(ws, 0)
			}
			r := rng.New(uint64(7000 + i))
			i++
			calls := 0
			ws, err := ExtractScheduled(q, func() int {
				calls++
				if r.Bool(0.5) {
					return 1000
				}
				return 2000
			}, 80000)
			if err != nil {
				t.Fatal(err)
			}
			hash(ws, calls)
		}
	}
	if got := h.Sum64(); got != want {
		t.Fatalf("feature digest %016x, pinned %016x", got, uint64(want))
	}
}

func TestExtractScheduledIntoReuse(t *testing.T) {
	// One WindowSet takes a long, a short and a long extraction in turn,
	// then one of 1–40-instruction windows, some with no memory
	// reference. Each must equal a fresh ExtractScheduled bit for bit, so
	// nothing of an earlier run survives in it.
	short := make([]int, 40)
	for i := range short {
		short[i] = i + 1
	}
	legs := []struct {
		n    int
		lens []int
	}{{80000, []int{1000, 2000}}, {20000, []int{1000, 2000}}, {80000, []int{1000, 2000}}, {20500, short}}
	progs := oraclePrograms(t)
	var dst WindowSet
	for i, leg := range legs {
		p, n := progs[(3*i+1)%len(progs)], leg.n
		seed := uint64(40 + i)
		next, calls := countedSchedule(seed, leg.lens)
		if err := ExtractScheduledInto(&dst, p, next, n); err != nil {
			t.Fatal(err)
		}
		freshNext, freshCalls := countedSchedule(seed, leg.lens)
		want, err := ExtractScheduled(p, freshNext, n)
		if err != nil {
			t.Fatal(err)
		}
		sameWindowSet(t, fmt.Sprintf("extraction %d (%s, %d)", i, p.Family, n), &dst, want)
		if *calls != *freshCalls {
			t.Fatalf("extraction %d: schedule called %d times, fresh %d", i, *calls, *freshCalls)
		}
	}
	// A failed extraction leaves no windows behind.
	if err := ExtractScheduledInto(&dst, progs[0], func() int { return 1 << 20 }, 1000); err == nil {
		t.Fatal("extraction without a complete window succeeded")
	}
	if dst.Windows != 0 || len(dst.Bounds) != 0 || len(dst.Rows(Instructions)) != 0 {
		t.Fatalf("failed extraction left %d windows, %d bounds, %d rows",
			dst.Windows, len(dst.Bounds), len(dst.Rows(Instructions)))
	}
}

// maxWarmAllocs bounds the allocations of a warmed 80k extraction. It
// measured 13 when pinned: the extractor, the schedule closure and
// trace.Exec's per-call slices. A fresh extraction's rows alone are
// about 80 more.
const maxWarmAllocs = 16

// raceEnabled is set by race_test.go under the race detector.
var raceEnabled bool

func TestExtractScheduledIntoAllocs(t *testing.T) {
	// A warmed WindowSet allocates no rows, bounds or headers: what is
	// left is the extractor, its schedule closure and trace.Exec's own
	// per-call state.
	if raceEnabled {
		// The race detector drops sync.Pool items at random, so the
		// pooled pipeline and summaries are rebuilt at random.
		t.Skip("allocation count is not stable under the race detector")
	}
	p := genProgram(t, 2, 77)
	next := func() int { return 1000 }
	var dst WindowSet
	if err := ExtractScheduledInto(&dst, p, next, 80000); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if err := ExtractScheduledInto(&dst, p, next, 80000); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > maxWarmAllocs {
		t.Fatalf("warmed 80k extraction: %.0f allocs, want at most %d", allocs, maxWarmAllocs)
	}
}

// BenchmarkExtractScheduled80K extracts one 80k-instruction program per
// iteration, cycling through every family, under a random {1000, 2000}
// window schedule: the simulation behind one verdict.
func BenchmarkExtractScheduled80K(b *testing.B) {
	const n = 80000
	fams := prog.AllFamilies()
	progs := make([]*prog.Program, len(fams))
	for i := range fams {
		progs[i] = genProgram(b, i, uint64(300+i))
	}
	next, _ := countedSchedule(1, []int{1000, 2000})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ExtractScheduled(progs[i%len(progs)], next, n); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/instr")
}
