package trace

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"rhmd/internal/isa"
	"rhmd/internal/prog"
)

// expander is a BodySink that turns each body run back into the events
// a plain Sink would have received.
type expander struct {
	evs []Event
}

func (x *expander) Event(e *Event) { x.evs = append(x.evs, *e) }

func (x *expander) Body(b *Body) {
	pc, addrs := b.PC, b.Addrs
	for _, ins := range b.Ins {
		e := Event{Op: ins.Op, PC: pc, Injected: ins.Injected}
		if ins.Op.IsMem() {
			e.Addr, addrs = addrs[0], addrs[1:]
		}
		x.evs = append(x.evs, e)
		pc += uint64(ins.Op.Bytes())
	}
	if len(addrs) != 0 {
		panic("body carries more addresses than memory instructions")
	}
}

// bodyTestPrograms returns one program per family and a block-level
// injected variant of each.
func bodyTestPrograms(t testing.TB) []*prog.Program {
	t.Helper()
	payload, err := prog.NewPayload([]isa.Op{isa.MOVLD, isa.XOR, isa.MOVST}, 4096)
	if err != nil {
		t.Fatal(err)
	}
	var out []*prog.Program
	for fi := range prog.AllFamilies() {
		p := genProgram(t, fi, uint64(900+fi))
		out = append(out, p, prog.Inject(p, payload, prog.BlockLevel))
	}
	return out
}

func TestBodySinkSeesPlainStream(t *testing.T) {
	for _, p := range bodyTestPrograms(t) {
		for _, orig := range []bool{false, true} {
			for _, n := range []int{1, 7, 20000, 20500} {
				cfg := Config{MaxInstructions: n, BudgetOriginalOnly: orig}
				var plain []Event
				stPlain, err := Exec(p, cfg, SinkFunc(func(e *Event) { plain = append(plain, *e) }))
				if err != nil {
					t.Fatal(err)
				}
				var body expander
				stBody, err := Exec(p, cfg, &body)
				if err != nil {
					t.Fatal(err)
				}
				stNil, err := Exec(p, cfg, nil)
				if err != nil {
					t.Fatal(err)
				}
				if stBody != stPlain || stNil != stPlain {
					t.Fatalf("%s %+v: stats differ:\nplain %+v\nbody  %+v\nnil   %+v", p.Name, cfg, stPlain, stBody, stNil)
				}
				if len(plain) != stPlain.Total || len(body.evs) != len(plain) {
					t.Fatalf("%s %+v: %d plain events, %d from bodies, %d in stats", p.Name, cfg, len(plain), len(body.evs), stPlain.Total)
				}
				for i := range plain {
					if body.evs[i] != plain[i] {
						t.Fatalf("%s %+v: event %d from bodies %+v, plain %+v", p.Name, cfg, i, body.evs[i], plain[i])
					}
				}
			}
		}
	}
}

// TestStreamDigestPinned pins a hash of the full event streams and stats
// of the test programs under both budget modes.
func TestStreamDigestPinned(t *testing.T) {
	const want = 0xbe9750186a911578
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	flag := func(v bool) uint64 {
		if v {
			return 1
		}
		return 0
	}
	sink := SinkFunc(func(e *Event) {
		put(uint64(e.Op) | flag(e.Taken)<<8 | flag(e.Injected)<<9)
		put(e.PC)
		put(e.Addr)
		put(e.Target)
	})
	for _, p := range bodyTestPrograms(t) {
		for _, orig := range []bool{false, true} {
			st, err := Exec(p, Config{MaxInstructions: 20500, BudgetOriginalOnly: orig}, sink)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range []int{st.Total, st.Injected, st.Loads, st.Stores, st.Branches, st.Taken, st.Calls, st.Returns, st.Restarts} {
				put(uint64(v))
			}
		}
	}
	if got := h.Sum64(); got != want {
		t.Fatalf("stream digest %016x, pinned %016x", got, uint64(want))
	}
}

// opsChecker is a BodySink that checks each body's Ops against the
// histogram of its Ins: equal on whole bodies, nil on cut ones.
type opsChecker struct {
	t          *testing.T
	name       string
	lens       map[uint64]int // block address -> static body length
	whole, cut int
}

func (c *opsChecker) Event(*Event) {}

func (c *opsChecker) Body(b *Body) {
	n, ok := c.lens[b.PC]
	if !ok {
		c.t.Fatalf("%s: body at %#x starts no block", c.name, b.PC)
	}
	if len(b.Ins) < n {
		c.cut++
		if b.Ops != nil {
			c.t.Fatalf("%s: body at %#x cut to %d of %d instructions carries Ops %v", c.name, b.PC, len(b.Ins), n, b.Ops)
		}
		return
	}
	c.whole++
	var want, got [256]int
	for _, in := range b.Ins {
		want[in.Op]++
	}
	for _, oc := range b.Ops {
		if oc.N <= 0 || got[oc.Op] != 0 {
			c.t.Fatalf("%s: body at %#x: bad or repeated Ops entry %+v in %v", c.name, b.PC, oc, b.Ops)
		}
		got[oc.Op] = int(oc.N)
	}
	if got != want {
		c.t.Fatalf("%s: body at %#x: Ops %v is not the histogram of its %d instructions", c.name, b.PC, b.Ops, len(b.Ins))
	}
}

func TestBodyOps(t *testing.T) {
	c := &opsChecker{t: t}
	for _, p := range bodyTestPrograms(t) {
		c.lens = map[uint64]int{}
		for _, f := range p.Funcs {
			for _, b := range f.Blocks {
				c.lens[b.Addr] = len(b.Body)
			}
		}
		for _, orig := range []bool{false, true} {
			for _, n := range []int{1, 7, 20000, 20500} {
				cfg := Config{MaxInstructions: n, BudgetOriginalOnly: orig}
				c.name = p.Name
				if _, err := Exec(p, cfg, c); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if c.whole == 0 || c.cut == 0 {
		t.Fatalf("saw %d whole and %d cut bodies; want both", c.whole, c.cut)
	}
}
