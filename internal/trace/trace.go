// Package trace executes synthetic programs and emits their dynamic
// instruction stream.
//
// This is the reproduction's substitute for the paper's Pin-based dynamic
// instrumentation inside a Windows VM (§3): it walks the program CFG,
// resolves branch outcomes from the program's deterministic seed, and
// produces per-instruction events (opcode, PC, effective address, branch
// outcome) that downstream consumers — the µarch simulators in
// internal/uarch and the feature extractors in internal/features —
// aggregate exactly like the paper's hardware counters would.
//
// Execution is deterministic given prog.Program.Seed, so "running the
// same program on the attacker's machine" (the paper's threat model)
// reproduces the identical stream.
package trace

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"rhmd/internal/isa"
	"rhmd/internal/prog"
	"rhmd/internal/rng"
)

// Event is one dynamically executed instruction.
type Event struct {
	Op   isa.Op
	PC   uint64
	Addr uint64 // effective address; valid only if Op touches memory
	// Taken and Target are valid only for conditional branches.
	Taken    bool
	Target   uint64
	Injected bool
}

// Sink consumes the dynamic stream. Exec calls it once per executed
// instruction, in order.
type Sink interface {
	Event(e *Event)
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(e *Event)

// Event calls f(e).
func (f SinkFunc) Event(e *Event) { f(e) }

// Body is one executed run of a basic block's straight-line body: the
// instructions in execution order, and the effective addresses of the
// memory instructions among them, also in order.
type Body struct {
	Ins   []prog.Instruction
	Addrs []uint64
	// Ops is the opcode histogram of Ins when Ins is the whole block
	// body, one entry per distinct opcode; nil when the budget cut the
	// run short.
	Ops []OpCount
	PC  uint64 // address of Ins[0]
}

// OpCount is one entry of a sparse opcode histogram.
type OpCount struct {
	Op isa.Op
	N  int32
}

// BodySink is a Sink that also takes whole block bodies. Exec hands it
// every body run through Body and only the block terminators through
// Event. A Body call stands for exactly the events a plain Sink would
// get one at a time, in the same order, so where a consumer's window
// ends inside a body, the sink splits the run itself. Exec reuses the
// Body and its slices after the call returns.
type BodySink interface {
	Sink
	Body(b *Body)
}

// MultiSink fans one stream out to several consumers (e.g. multiple
// feature extractors sharing one execution).
type MultiSink []Sink

// Event forwards to every sink.
func (m MultiSink) Event(e *Event) {
	for _, s := range m {
		s.Event(e)
	}
}

// Config bounds an execution.
type Config struct {
	// MaxInstructions is the instruction budget (paper: 15M committed
	// instructions; our default corpus uses shorter traces, see
	// DESIGN.md). Must be positive.
	MaxInstructions int
	// BudgetOriginalOnly makes the budget count only non-injected
	// instructions. The evasion-overhead experiment (paper Figure 9)
	// uses it to compare "same useful work" executions: the dynamic
	// overhead is Stats.Injected / Stats.Original.
	BudgetOriginalOnly bool
	// MaxCallDepth bounds the simulated call stack; deeper calls are
	// elided (the call event is still emitted). Defaults to 64.
	MaxCallDepth int
}

// Stats summarizes an execution.
type Stats struct {
	Total    int // all executed instructions
	Injected int // executed instructions marked Injected
	Loads    int
	Stores   int
	Branches int
	Taken    int
	Calls    int
	Returns  int
	Restarts int // times the entry function returned and execution wrapped
}

// Original returns the number of executed non-injected instructions.
func (s Stats) Original() int { return s.Total - s.Injected }

// DynamicOverhead returns the relative execution-time increase caused by
// injected instructions (paper Figure 9's dynamic overhead), assuming a
// unit cost per instruction.
func (s Stats) DynamicOverhead() float64 {
	if o := s.Original(); o > 0 {
		return float64(s.Injected) / float64(o)
	}
	return 0
}

// memState holds the per-execution memory-address generators, one cursor
// per pattern plus the pointer-chase and stack state. Regions are
// disjoint so cross-pattern deltas land in large histogram bins while
// within-pattern deltas stay characteristic.
type memState struct {
	r        *rng.Source
	cfg      prog.MemConfig
	seqCur   [3]uint64 // seq1, seq8, seq64 cursors
	chaseCur uint64
	sp       uint64
	last     uint64 // last effective address, for MemFixed deltas
}

// Region bases for the synthetic address space.
const (
	seqBase      = 0x1000_0000
	randSmallBas = 0x2000_0000
	randLargeBas = 0x3000_0000
	chaseBase    = 0x4000_0000
	stackTop     = 0x7fff_0000
	stackSpan    = 1 << 20
)

func newMemState(r *rng.Source, cfg prog.MemConfig) *memState {
	m := &memState{r: r, cfg: cfg, sp: stackTop, chaseCur: chaseBase}
	for i := range m.seqCur {
		m.seqCur[i] = seqBase + uint64(i)<<26
	}
	m.last = randSmallBas
	return m
}

// addr produces the effective address for one memory instruction.
func (m *memState) addr(op isa.Op, spec prog.MemSpec) uint64 {
	var a uint64
	switch spec.Pattern {
	case prog.MemSeq1:
		m.seqCur[0]++
		if m.seqCur[0] >= seqBase+uint64(m.cfg.WSLarge) {
			m.seqCur[0] = seqBase
		}
		a = m.seqCur[0]
	case prog.MemSeq8:
		m.seqCur[1] += 8
		if m.seqCur[1] >= seqBase+(1<<26)+uint64(m.cfg.WSLarge) {
			m.seqCur[1] = seqBase + 1<<26
		}
		a = m.seqCur[1]
	case prog.MemSeq64:
		m.seqCur[2] += 64
		if m.seqCur[2] >= seqBase+(2<<26)+uint64(m.cfg.WSLarge) {
			m.seqCur[2] = seqBase + 2<<26
		}
		a = m.seqCur[2]
	case prog.MemRandSmall:
		a = randSmallBas + uint64(m.r.Intn(m.cfg.WSSmall))&^7
	case prog.MemRandLarge:
		a = randLargeBas + uint64(m.r.Intn(m.cfg.WSLarge))&^7
	case prog.MemChase:
		// Dependent pseudo-random walk (LCG over the working set).
		off := (m.chaseCur*6364136223846793005 + 1442695040888963407) % uint64(m.cfg.WSLarge)
		m.chaseCur = chaseBase + off&^7
		a = m.chaseCur
	case prog.MemStack:
		if op.IsStore() { // push-like
			m.sp -= 8
			if m.sp < stackTop-stackSpan {
				m.sp = stackTop - 8
			}
			a = m.sp
		} else { // pop-like
			a = m.sp
			m.sp += 8
			if m.sp > stackTop {
				m.sp = stackTop
			}
		}
	case prog.MemFixed:
		a = uint64(int64(m.last) + spec.Delta)
	default:
		// MemNone on a memory op is rejected by Validate; be defensive.
		a = randSmallBas
	}
	// Model the program's propensity for unaligned accesses. Stack and
	// fixed-delta accesses keep their exact addresses (fixed deltas are
	// attacker-controlled).
	if spec.Pattern != prog.MemStack && spec.Pattern != prog.MemFixed && spec.Pattern != prog.MemSeq1 {
		if m.cfg.UnalignedFrac > 0 && m.r.Bool(m.cfg.UnalignedFrac) {
			a += uint64(1 + m.r.Intn(3))
		}
	}
	m.last = a
	return a
}

// blockSum is the static summary of one block body. A body that runs
// whole costs Exec its memory instructions, not its length.
type blockSum struct {
	size     int // bytes
	injected int
	loads    int
	stores   int
	mem      []int32   // positions of the memory instructions
	ops      []OpCount // opcode histogram
}

// summaries holds the block summaries of one Exec call. Calls share the
// storage through summaryPool; each call rebuilds the contents.
type summaries struct {
	blocks []blockSum
	mem    []int32
	ops    []OpCount
}

var summaryPool = sync.Pool{New: func() any { return new(summaries) }}

// build summarises every block body of p into s.blocks, indexed by
// global block id (function-major, as Exec numbers blocks). The
// position and histogram slices share two backing arrays sized to the
// program's code, so they never reallocate while being filled.
func (s *summaries) build(p *prog.Program, nBlocks int) {
	nIns := 0
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			nIns += len(b.Body)
		}
	}
	sums := slices.Grow(s.blocks[:0], nBlocks)
	memPos := slices.Grow(s.mem[:0], nIns)
	ops := slices.Grow(s.ops[:0], nIns)
	var slot [256]int32 // 1 + index into the current block's ops; 0 = absent
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			var bs blockSum
			m0, o0 := len(memPos), len(ops)
			for i, in := range b.Body {
				op := in.Op
				bs.size += op.Bytes()
				if in.Injected {
					bs.injected++
				}
				if op.IsLoad() {
					bs.loads++
				}
				if op.IsStore() {
					bs.stores++
				}
				if op.IsMem() {
					memPos = append(memPos, int32(i))
				}
				if k := slot[op]; k != 0 {
					ops[o0+int(k)-1].N++
				} else {
					ops = append(ops, OpCount{Op: op, N: 1})
					slot[op] = int32(len(ops) - o0)
				}
			}
			for _, oc := range ops[o0:] {
				slot[oc.Op] = 0
			}
			bs.mem = memPos[m0:len(memPos):len(memPos)]
			bs.ops = ops[o0:len(ops):len(ops)]
			sums = append(sums, bs)
		}
	}
	s.blocks, s.mem, s.ops = sums, memPos, ops
}

// frame is one simulated call-stack entry.
type frame struct {
	fn, block int
}

// Exec runs p under cfg, delivering every executed instruction to sink.
// It returns execution statistics. sink may be nil to run for statistics
// only, in which case no memory addresses are generated: they come from
// their own random stream and never steer control flow. A BodySink gets
// block bodies whole (see BodySink). Exec never mutates p, and
// summarises its block bodies afresh on every call.
func Exec(p *prog.Program, cfg Config, sink Sink) (Stats, error) {
	if cfg.MaxInstructions <= 0 {
		return Stats{}, fmt.Errorf("trace: MaxInstructions must be positive, got %d", cfg.MaxInstructions)
	}
	if err := p.Validate(); err != nil {
		return Stats{}, fmt.Errorf("trace: %w", err)
	}
	depth := cfg.MaxCallDepth
	if depth <= 0 {
		depth = 64
	}

	r := rng.NewKeyed(p.Seed, "trace")
	mem := newMemState(rng.NewKeyed(p.Seed, "mem"), p.Mem)
	bodySink, _ := sink.(BodySink)

	var st Stats
	var stack []frame
	fi, bi := 0, 0
	var ev Event
	var body Body
	// Live trip counters for counted loops, indexed by global block id
	// (firstBlock[fi] + bi) and stored plus one: 0 means no live entry.
	firstBlock := make([]int, len(p.Funcs))
	nBlocks := 0
	for i, f := range p.Funcs {
		firstBlock[i] = nBlocks
		nBlocks += len(f.Blocks)
	}
	trips := make([]int, nBlocks)
	sums := summaryPool.Get().(*summaries)
	defer summaryPool.Put(sums)
	sums.build(p, nBlocks)

	budgetLeft := func() bool {
		if cfg.BudgetOriginalOnly {
			return st.Original() < cfg.MaxInstructions
		}
		return st.Total < cfg.MaxInstructions
	}

	for budgetLeft() {
		f := p.Funcs[fi]
		b := f.Blocks[bi]

		key := firstBlock[fi] + bi
		sum := &sums.blocks[key]

		// The body run ends early at the instruction that exhausts the
		// budget. Under BudgetOriginalOnly that can only happen when
		// the body holds at least room original instructions.
		ins := b.Body
		whole := true
		if cfg.BudgetOriginalOnly {
			if room := cfg.MaxInstructions - st.Original(); len(ins)-sum.injected >= room {
				for i := range ins {
					if !ins[i].Injected {
						if room--; room == 0 {
							ins = ins[:i+1]
							break
						}
					}
				}
				whole = len(ins) == len(b.Body)
			}
		} else if room := cfg.MaxInstructions - st.Total; len(ins) > room {
			ins, whole = ins[:room], false
		}
		addrs := body.Addrs[:0]
		var ops []OpCount
		if whole {
			st.Injected += sum.injected
			st.Loads += sum.loads
			st.Stores += sum.stores
			if sink != nil {
				for _, i := range sum.mem {
					addrs = append(addrs, mem.addr(ins[i].Op, ins[i].Mem))
				}
			}
			ops = sum.ops
		} else {
			// The budget runs out inside this body, so no terminator
			// follows and its size is not needed.
			for i := range ins {
				op := ins[i].Op
				if ins[i].Injected {
					st.Injected++
				}
				if op.IsLoad() {
					st.Loads++
				}
				if op.IsStore() {
					st.Stores++
				}
				if op.IsMem() && sink != nil {
					addrs = append(addrs, mem.addr(op, ins[i].Mem))
				}
			}
		}
		st.Total += len(ins)
		body.Ins, body.Addrs, body.Ops, body.PC = ins, addrs, ops, b.Addr
		switch {
		case len(ins) == 0:
		case bodySink != nil:
			bodySink.Body(&body)
		case sink != nil:
			pc := b.Addr
			for i := range ins {
				ev = Event{Op: ins[i].Op, PC: pc, Injected: ins[i].Injected}
				if ev.Op.IsMem() {
					ev.Addr, addrs = addrs[0], addrs[1:]
				}
				sink.Event(&ev)
				pc += uint64(ev.Op.Bytes())
			}
		}
		if !budgetLeft() {
			return st, nil
		}

		t := b.Term
		if op, ok := t.Op(); ok {
			ev = Event{Op: op, PC: b.Addr + uint64(sum.size)}
			switch t.Kind {
			case prog.TermBranch:
				st.Branches++
				ev.Taken = r.Bool(t.TakenProb)
				ev.Target = f.Blocks[t.Target].Addr
				if ev.Taken {
					st.Taken++
				}
			case prog.TermLoop:
				st.Branches++
				left := trips[key] - 1
				if left < 0 {
					// Fresh loop entry: draw this entry's trip count.
					left = int(r.LogNorm(logMean(t.IterMean), 0.6))
					if left < 1 {
						left = 1
					}
				}
				ev.Target = f.Blocks[t.Target].Addr
				if left > 0 {
					ev.Taken = true
					st.Taken++
					trips[key] = left
				} else {
					trips[key] = 0
				}
			case prog.TermCall:
				st.Calls++
				if sink != nil {
					ev.Addr = mem.addr(isa.CALLN, prog.MemSpec{Pattern: prog.MemStack})
				}
			case prog.TermRet:
				st.Returns++
				if sink != nil {
					ev.Addr = mem.addr(isa.RET, prog.MemSpec{Pattern: prog.MemStack})
				}
			}
			st.Total++
			if op.IsLoad() {
				st.Loads++
			}
			if op.IsStore() {
				st.Stores++
			}
			if sink != nil {
				sink.Event(&ev)
			}
		}

		// Advance control flow.
		switch t.Kind {
		case prog.TermFall:
			bi++
		case prog.TermJump:
			bi = t.Target
		case prog.TermBranch, prog.TermLoop:
			if ev.Taken {
				bi = t.Target
			} else {
				bi++
			}
		case prog.TermCall:
			if len(stack) < depth {
				stack = append(stack, frame{fn: fi, block: bi + 1})
				fi, bi = t.Callee, 0
			} else {
				bi++ // elide the call body, keep going
			}
		case prog.TermRet:
			if len(stack) > 0 {
				top := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				fi, bi = top.fn, top.block
			} else {
				// Entry function returned: the program is a long-running
				// process, restart it.
				st.Restarts++
				fi, bi = 0, 0
			}
		}
	}
	return st, nil
}

// logMean converts a mean trip count to the log-normal location
// parameter used for per-entry draws.
func logMean(mean float64) float64 {
	if mean < 1 {
		mean = 1
	}
	return math.Log(mean)
}

// MustExec is Exec for callers holding validated programs; it panics on
// configuration errors. Used by benchmarks and examples.
func MustExec(p *prog.Program, cfg Config, sink Sink) Stats {
	st, err := Exec(p, cfg, sink)
	if err != nil {
		panic(err)
	}
	return st
}
