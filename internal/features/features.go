// Package features turns dynamic instruction streams into the per-window
// feature vectors the paper's detectors consume (§3):
//
//   - Instructions: executed opcode frequencies. The paper selects "the
//     instructions that show the most different frequency (delta) between
//     normal programs and malware in the training set"; extraction keeps
//     the full opcode histogram and TopDeltaIndices performs that
//     training-set-dependent selection.
//   - Memory: a histogram of memory-reference address deltas "organized
//     in bins based on the address difference between consecutive memory
//     accesses".
//   - Architectural: counts of architectural events per window (taken
//     branches, mispredictions, cache misses, unaligned accesses, ...).
//
// A feature vector is computed over a collection window of a fixed number
// of committed instructions (the paper's classification period, typically
// 10K).
package features

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"

	"rhmd/internal/isa"
	"rhmd/internal/prog"
	"rhmd/internal/trace"
	"rhmd/internal/uarch"
)

// Kind identifies one of the three feature-vector families.
type Kind uint8

// Feature kinds.
const (
	Instructions Kind = iota
	Memory
	Architectural
	numKinds
)

// NumKinds is the number of feature families.
const NumKinds = int(numKinds)

// AllKinds lists every feature family.
func AllKinds() []Kind { return []Kind{Instructions, Memory, Architectural} }

var kindNames = [...]string{"instructions", "memory", "architectural"}

// String returns the paper's name for the feature family.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// ParseKind resolves a feature-family name.
func ParseKind(s string) (Kind, error) {
	for i, n := range kindNames {
		if n == s {
			return Kind(i), nil
		}
	}
	return 0, fmt.Errorf("features: unknown kind %q", s)
}

// MemBins is the number of log2 address-delta histogram bins.
const MemBins = 24

// Architectural event vector layout.
const (
	ArchTakenBranches = iota
	ArchBranches
	ArchMispredicts
	ArchL1Misses
	ArchL2Misses
	ArchUnaligned
	ArchLoads
	ArchStores
	ArchCalls
	ArchReturns
	ArchSyscalls
	ArchStackOps
	ArchDim
)

var archNames = [ArchDim]string{
	"taken-branches", "branches", "mispredicts", "l1-misses", "l2-misses",
	"unaligned", "loads", "stores", "calls", "returns", "syscalls", "stack-ops",
}

// Dim returns the dimensionality of the kind's raw vectors.
func (k Kind) Dim() int {
	switch k {
	case Instructions:
		return isa.NumOps
	case Memory:
		return MemBins
	case Architectural:
		return ArchDim
	}
	panic(fmt.Sprintf("features: invalid kind %d", uint8(k)))
}

// Names returns human-readable component names for the kind.
func (k Kind) Names() []string {
	switch k {
	case Instructions:
		out := make([]string, isa.NumOps)
		for op := 0; op < isa.NumOps; op++ {
			out[op] = isa.Op(op).String()
		}
		return out
	case Memory:
		out := make([]string, MemBins)
		for i := range out {
			out[i] = fmt.Sprintf("delta-2^%d", i)
		}
		return out
	case Architectural:
		out := make([]string, ArchDim)
		copy(out, archNames[:])
		return out
	}
	panic(fmt.Sprintf("features: invalid kind %d", uint8(k)))
}

// WindowSet holds the per-window feature matrices extracted from one
// program trace. Rows are aligned across kinds: row i of every kind
// describes the same window. Bounds[i] records the instruction range
// [start, end) of window i; for fixed-period extraction every window has
// length Period, while scheduled extraction (ExtractScheduled) produces
// variable-length windows and leaves Period at 0.
//
// The rows of one extraction share a single backing array. A WindowSet
// passed to ExtractScheduledInto is overwritten in place, so rows read
// from it are valid only until it is reused.
type WindowSet struct {
	Period  int
	Windows int
	Bounds  [][2]int
	Vectors [NumKinds][][]float64

	// rows backs every row: window i's three rows sit at
	// rows[i*rowDim : (i+1)*rowDim], in kind order.
	rows []float64
}

// rowDim is the length of one window's three rows together.
const rowDim = isa.NumOps + MemBins + ArchDim

// maxGuessWindows caps the rows ExtractScheduledInto reserves up front
// for an empty WindowSet, so a schedule of very short windows grows its
// storage instead of reserving a row per instruction.
const maxGuessWindows = 128

// reset empties w for a new extraction, keeping its storage.
func (w *WindowSet) reset() {
	w.Period, w.Windows = 0, 0
	w.Bounds = w.Bounds[:0]
	w.rows = w.rows[:0]
	for k := range w.Vectors {
		w.Vectors[k] = w.Vectors[k][:0]
	}
}

// index points the row headers into the backing array once every
// window has closed, so its growth never strands a header.
func (w *WindowSet) index() {
	for i := 0; i < w.Windows; i++ {
		row := w.rows[i*rowDim : (i+1)*rowDim : (i+1)*rowDim]
		w.Vectors[Instructions] = append(w.Vectors[Instructions], row[:isa.NumOps:isa.NumOps])
		w.Vectors[Memory] = append(w.Vectors[Memory], row[isa.NumOps:isa.NumOps+MemBins:isa.NumOps+MemBins])
		w.Vectors[Architectural] = append(w.Vectors[Architectural], row[isa.NumOps+MemBins:])
	}
}

// Rows returns the feature matrix for one kind.
func (w *WindowSet) Rows(k Kind) [][]float64 { return w.Vectors[k] }

// archOps lists, per architectural event, the opcodes that raise it by
// themselves whatever their operands and outcome. These events are
// derived from a window's opcode counts when it closes; the outcome
// events (branches, mispredictions, cache misses, unaligned accesses)
// are counted as they happen.
var archOps = func() (t [ArchDim][]isa.Op) {
	for op := isa.Op(0); op < isa.Op(isa.NumOps); op++ {
		if op.IsLoad() {
			t[ArchLoads] = append(t[ArchLoads], op)
		}
		if op.IsStore() {
			t[ArchStores] = append(t[ArchStores], op)
		}
		switch op.Class() {
		case isa.ClassCall:
			t[ArchCalls] = append(t[ArchCalls], op)
		case isa.ClassRet:
			t[ArchReturns] = append(t[ArchReturns], op)
		case isa.ClassSystem:
			t[ArchSyscalls] = append(t[ArchSyscalls], op)
		case isa.ClassStack:
			t[ArchStackOps] = append(t[ArchStackOps], op)
		}
	}
	return t
}()

// pipelines recycles µarch pipelines across extractions: their caches
// are most of what one extraction would otherwise allocate.
var pipelines = sync.Pool{New: func() any { return uarch.NewDefaultPipeline() }}

// extractor implements trace.BodySink, accumulating all three feature
// families per window over a shared µarch pipeline. nextLen yields the
// length of each successive window, allowing both fixed-period and
// scheduled (randomized-period) extraction.
//
// Every feature is a raw count divided once when its window closes, so
// the counters are integers: a float64 incremented by one from zero is
// exact, and the quotients are the same bits either way.
type extractor struct {
	nextLen func() int
	pipe    *uarch.Pipeline

	curLen   int
	start    int
	total    int
	count    int
	opCounts [256]int // indexed by the whole isa.Op range: no bounds check
	memHist  [MemBins]int
	memRefs  int
	arch     [ArchDim]int // outcome events only; see archOps
	lastAddr uint64
	haveAddr bool

	out *WindowSet
}

// Event implements trace.Sink. Exec sends only block terminators here.
func (x *extractor) Event(e *trace.Event) {
	o := x.pipe.Process(e)
	x.opCounts[e.Op]++
	if o.IsMem {
		x.memRef(e.Addr)
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
	if o.IsBranch {
		x.arch[ArchBranches]++
		if o.Taken {
			x.arch[ArchTakenBranches]++
		}
		if o.Mispredict {
			x.arch[ArchMispredicts]++
		}
	}
	x.count++
	x.total++
	if x.count >= x.curLen {
		x.flush()
	}
}

// Body implements trace.BodySink: it counts a body run, closing windows
// wherever they end inside it. A whole body that fits in the current
// window adds its opcode histogram and walks only its addresses. Body
// instructions are never branches, so only the cache sees them.
func (x *extractor) Body(b *trace.Body) {
	ins, addrs := b.Ins, b.Addrs
	if b.Ops != nil && len(ins) <= x.curLen-x.count {
		for _, oc := range b.Ops {
			x.opCounts[oc.Op] += int(oc.N)
		}
		x.dataRefs(addrs)
		x.count += len(ins)
		x.total += len(ins)
		if x.count >= x.curLen {
			x.flush()
		}
		return
	}
	for len(ins) > 0 {
		k := min(x.curLen-x.count, len(ins))
		m := 0
		for i := range ins[:k] {
			op := ins[i].Op
			x.opCounts[op]++
			if op.IsMem() {
				m++
			}
		}
		x.dataRefs(addrs[:m])
		ins, addrs = ins[k:], addrs[m:]
		x.count += k
		x.total += k
		if x.count >= x.curLen {
			x.flush()
		}
	}
}

// dataRefs records a run of body memory references: the address-delta
// histogram, unaligned accesses and the cache hierarchy.
func (x *extractor) dataRefs(addrs []uint64) {
	cache := x.pipe.Cache
	for _, a := range addrs {
		x.memRef(a)
		if a%4 != 0 {
			x.arch[ArchUnaligned]++
		}
		if l1, l2 := cache.Access(a); l1 {
			x.arch[ArchL1Misses]++
			if l2 {
				x.arch[ArchL2Misses]++
			}
		}
	}
}

// memRef records one memory reference in the address-delta histogram.
func (x *extractor) memRef(a uint64) {
	x.memRefs++
	if x.haveAddr {
		x.memHist[deltaBin(x.lastAddr, a)]++
	}
	x.lastAddr = a
	x.haveAddr = true
}

// deltaBin maps the absolute address difference between consecutive
// memory references to a log2 bin, saturating at the top bin.
func deltaBin(prev, cur uint64) int {
	var d uint64
	if cur >= prev {
		d = cur - prev
	} else {
		d = prev - cur
	}
	if d == 0 {
		return 0
	}
	b := bits.Len64(d) // 1 + floor(log2 d)
	if b >= MemBins {
		return MemBins - 1
	}
	return b
}

// flush normalizes the window accumulators into feature rows and resets
// them. Instruction frequencies are normalized by window length, memory
// bins by the number of references (a distribution), architectural
// events by window length.
func (x *extractor) flush() {
	n := float64(x.count)

	for e, ops := range archOps {
		for _, op := range ops {
			x.arch[e] += x.opCounts[op]
		}
	}
	out := x.out
	at := len(out.rows)
	if at+rowDim > cap(out.rows) {
		// Double: append's own growth for a slice this size is about
		// 1.25×, which would copy the rows many more times.
		out.rows = slices.Grow(out.rows, max(at, rowDim))
	}
	out.rows = out.rows[:at+rowDim]
	row := out.rows[at:]
	iv := row[:isa.NumOps]
	mv := row[isa.NumOps : isa.NumOps+MemBins]
	av := row[isa.NumOps+MemBins:]
	for i := range iv {
		iv[i] = float64(x.opCounts[i]) / n
	}
	if x.memRefs > 0 {
		refs := float64(x.memRefs)
		for i := range mv {
			mv[i] = float64(x.memHist[i]) / refs
		}
	} else {
		clear(mv) // reused storage may hold an earlier window's bins
	}
	for i := range av {
		av[i] = float64(x.arch[i]) / n
	}

	out.Bounds = append(out.Bounds, [2]int{x.start, x.total})
	out.Windows++

	x.start = x.total
	x.count = 0
	x.curLen = x.nextLen()
	x.opCounts = [256]int{}
	x.memHist = [MemBins]int{}
	x.memRefs = 0
	x.arch = [ArchDim]int{}
}

// run traces p into dst on a pooled pipeline, reset first so no earlier
// program's state leaks into these features. dst is emptied first and
// keeps its storage; on error it is left empty.
func (x *extractor) run(dst *WindowSet, p *prog.Program, maxInstr int) error {
	dst.reset()
	x.out = dst
	pipe := pipelines.Get().(*uarch.Pipeline)
	pipe.Reset()
	x.pipe = pipe
	_, err := trace.Exec(p, trace.Config{MaxInstructions: maxInstr}, x)
	x.pipe = nil
	pipelines.Put(pipe)
	if err != nil {
		dst.reset()
		return err
	}
	dst.index()
	return nil
}

// Extract traces p for maxInstr committed instructions and returns the
// per-window feature vectors at the given collection period. Partial
// trailing windows are discarded, as a hardware implementation flushing
// at period boundaries would.
func Extract(p *prog.Program, period, maxInstr int) (*WindowSet, error) {
	if period <= 0 {
		return nil, fmt.Errorf("features: period must be positive, got %d", period)
	}
	if maxInstr < period {
		return nil, fmt.Errorf("features: trace budget %d below period %d", maxInstr, period)
	}
	x := &extractor{
		nextLen: func() int { return period },
		curLen:  period,
	}
	// The window count is known up front, so the rows are sized exactly.
	ws := &WindowSet{rows: make([]float64, 0, maxInstr/period*rowDim)}
	if err := x.run(ws, p, maxInstr); err != nil {
		return nil, err
	}
	if ws.Windows == 0 {
		return nil, fmt.Errorf("features: trace of %q produced no complete windows", p.Name)
	}
	ws.Period = period
	return ws, nil
}

// ExtractScheduled traces p with a caller-supplied window schedule: next
// is called for the length of each successive window (it must return a
// positive value). This is how an RHMD with heterogeneous collection
// periods observes a program — each window's length is that of the base
// detector randomly selected for it. The trailing partial window is
// discarded.
func ExtractScheduled(p *prog.Program, next func() int, maxInstr int) (*WindowSet, error) {
	ws := new(WindowSet)
	if err := ExtractScheduledInto(ws, p, next, maxInstr); err != nil {
		return nil, err
	}
	return ws, nil
}

// ExtractScheduledInto is ExtractScheduled writing into dst, whose
// bounds, row headers and row storage it reuses: a caller extracting
// program after program into one WindowSet allocates rows only while
// its longest extraction still grows them. On error dst is left with
// no windows.
func ExtractScheduledInto(dst *WindowSet, p *prog.Program, next func() int, maxInstr int) error {
	if maxInstr <= 0 {
		return fmt.Errorf("features: trace budget %d must be positive", maxInstr)
	}
	first := next()
	if first <= 0 {
		return fmt.Errorf("features: schedule produced non-positive window %d", first)
	}
	if cap(dst.rows) == 0 {
		// First guess at the row count: the windows a schedule that
		// keeps the first length would fit in the budget.
		dst.rows = make([]float64, 0, min(maxInstr/first, maxGuessWindows)*rowDim)
	}
	x := &extractor{
		nextLen: func() int {
			n := next()
			if n <= 0 {
				n = 1 // defensive: a broken schedule must not wedge extraction
			}
			return n
		},
		curLen: first,
	}
	if err := x.run(dst, p, maxInstr); err != nil {
		return err
	}
	if dst.Windows == 0 {
		return fmt.Errorf("features: scheduled trace of %q produced no complete windows", p.Name)
	}
	return nil
}

// TopDeltaIndices implements the paper's instruction-feature selection:
// rank components by the absolute difference between their mean value in
// malware windows and in benign windows, and return the indices of the k
// largest deltas (in rank order). It applies to any feature kind but the
// paper uses it for Instructions.
func TopDeltaIndices(malware, benign [][]float64, k int) []int {
	if len(malware) == 0 || len(benign) == 0 {
		return nil
	}
	dim := len(malware[0])
	mMean := columnMeans(malware, dim)
	bMean := columnMeans(benign, dim)
	type cand struct {
		idx   int
		delta float64
	}
	cands := make([]cand, dim)
	for i := 0; i < dim; i++ {
		cands[i] = cand{i, math.Abs(mMean[i] - bMean[i])}
	}
	// Selection sort of the top k: dim is small (≤ isa.NumOps).
	if k > dim {
		k = dim
	}
	out := make([]int, 0, k)
	for len(out) < k {
		best := -1
		for i, c := range cands {
			if c.idx < 0 {
				continue
			}
			if best < 0 || c.delta > cands[best].delta {
				best = i
			}
		}
		out = append(out, cands[best].idx)
		cands[best].idx = -1
	}
	return out
}

func columnMeans(rows [][]float64, dim int) []float64 {
	m := make([]float64, dim)
	for _, r := range rows {
		for i := 0; i < dim && i < len(r); i++ {
			m[i] += r[i]
		}
	}
	for i := range m {
		m[i] /= float64(len(rows))
	}
	return m
}

// Project returns the rows restricted to the selected column indices.
func Project(rows [][]float64, idx []int) [][]float64 {
	out := make([][]float64, len(rows))
	for r, row := range rows {
		v := make([]float64, len(idx))
		for i, c := range idx {
			v[i] = row[c]
		}
		out[r] = v
	}
	return out
}

// ProjectRow restricts a single vector to the selected columns.
func ProjectRow(row []float64, idx []int) []float64 {
	v := make([]float64, len(idx))
	for i, c := range idx {
		v[i] = row[c]
	}
	return v
}
