package uarch

import (
	"testing"

	"rhmd/internal/prog"
	"rhmd/internal/rng"
	"rhmd/internal/trace"
)

// lruModel is a direct true-LRU reference: each set is a list of line
// numbers, most recently used first.
type lruModel struct {
	ways, lineSize int
	sets           [][]uint64
}

func newLRUModel(sizeBytes, ways, lineSize int) *lruModel {
	return &lruModel{ways: ways, lineSize: lineSize, sets: make([][]uint64, sizeBytes/lineSize/ways)}
}

func (m *lruModel) access(addr uint64) bool {
	line := addr / uint64(m.lineSize)
	s := &m.sets[line%uint64(len(m.sets))]
	for i, l := range *s {
		if l == line {
			copy((*s)[1:i+1], (*s)[:i])
			(*s)[0] = line
			return true
		}
	}
	*s = append([]uint64{line}, *s...)
	if len(*s) > m.ways {
		*s = (*s)[:m.ways]
	}
	return false
}

func (m *lruModel) reset() {
	for i := range m.sets {
		m.sets[i] = nil
	}
}

func TestCacheMatchesTrueLRU(t *testing.T) {
	geoms := [][3]int{
		{32 << 10, 8, 64},  // the default L1
		{256 << 10, 8, 64}, // the default L2
		{1024, 2, 64},
		{512, 1, 16}, // direct-mapped
		{256, 4, 1},  // byte lines: every address bit is tag or set
		{64, 4, 16},  // a single set
	}
	for gi, g := range geoms {
		c := MustCache(g[0], g[1], g[2])
		m := newLRUModel(g[0], g[1], g[2])
		r := rng.New(uint64(gi + 1))
		// The working set spans 4× capacity so evictions are frequent;
		// repeats and near neighbours exercise the last-line shortcut.
		span := 4 * g[0]
		prev := uint64(0)
		for i := 0; i < 200000; i++ {
			if r.Intn(5000) == 0 {
				c.Reset()
				m.reset()
			}
			var a uint64
			switch r.Intn(4) {
			case 0:
				a = prev // exact repeat
			case 1:
				a = prev + uint64(r.Intn(g[2]+1)) // same or next line
			case 2:
				a = ^uint64(0) - uint64(r.Intn(span)) // top of the address space
			default:
				a = uint64(r.Intn(span))
			}
			prev = a
			if got, want := c.Access(a), m.access(a); got != want {
				t.Fatalf("geometry %v access %d (%#x): hit=%v, true LRU says %v", g, i, a, got, want)
			}
		}
	}
}

func TestCacheSharedSignatures(t *testing.T) {
	// Tags that share one signature byte within a set make every valid
	// way a candidate, so lookups meet false positives at every depth.
	// Three times as many tags as ways keep misses and deep hits mixed.
	const size, ways, lineSize = 32 << 10, 8, 64
	c := MustCache(size, ways, lineSize)
	m := newLRUModel(size, ways, lineSize)
	shift := c.lineBits + c.setBits
	set := uint64(5)
	var tags []uint64
	for tag := uint64(0); len(tags) < 3*ways; tag++ {
		if signature(tag) == signature(0) {
			tags = append(tags, tag)
		}
	}
	r := rng.New(9)
	for i := 0; i < 50000; i++ {
		if r.Intn(2000) == 0 {
			c.Reset()
			m.reset()
		}
		tag := tags[r.Intn(len(tags))]
		if r.Intn(4) == 0 {
			tag = tags[r.Intn(ways)] // a hot subset that fits the set
		}
		a := tag<<shift | set<<c.lineBits | uint64(r.Intn(lineSize))
		if got, want := c.Access(a), m.access(a); got != want {
			t.Fatalf("access %d (tag %#x): hit=%v, true LRU says %v", i, tag, got, want)
		}
	}
}

func TestCacheResetThenRepeat(t *testing.T) {
	// The access right after a Reset must miss even when it repeats the
	// line the previous access touched.
	c := MustCache(1024, 2, 64)
	c.Access(0x40)
	c.Reset()
	if c.Access(0x40) {
		t.Fatal("repeat access hit across Reset")
	}
	if !c.Access(0x44) {
		t.Fatal("same-line access after refill missed")
	}
}

func TestNewCacheRejectsTagWithoutFreeBit(t *testing.T) {
	// With one set and byte lines the tag is the whole address, so the
	// all-ones address would equal the invalid marker.
	if _, err := NewCache(4, 4, 1); err == nil {
		t.Fatal("one-set byte-line geometry accepted")
	}
	// One more set or a wider line frees a bit: the all-ones address
	// misses on an empty cache, then hits.
	for _, g := range [][3]int{{8, 4, 1}, {8, 4, 2}} {
		c := MustCache(g[0], g[1], g[2])
		if c.Access(^uint64(0)) {
			t.Fatalf("geometry %v: all-ones address hit an empty cache", g)
		}
		if !c.Access(^uint64(0)) {
			t.Fatalf("geometry %v: all-ones address missed after its fill", g)
		}
	}
}

// BenchmarkCacheAccess drives an L1-geometry cache with a mixed stream:
// half sequential words (mostly same-line repeats), half uniform over a
// 64 KiB working set (set scans with misses).
func BenchmarkCacheAccess(b *testing.B) {
	c := MustCache(32<<10, 8, 64)
	r := rng.New(1)
	addrs := make([]uint64, 1<<16)
	seq := uint64(0x1000_0000)
	for i := range addrs {
		if i%2 == 0 {
			seq += 8
			addrs[i] = seq
		} else {
			addrs[i] = 0x2000_0000 + uint64(r.Intn(64<<10))
		}
	}
	b.ResetTimer()
	hits := 0
	for i := 0; i < b.N; i++ {
		if c.Access(addrs[i&(len(addrs)-1)]) {
			hits++
		}
	}
	if b.N > len(addrs) && hits == 0 {
		b.Fatal("no hits")
	}
}

// BenchmarkHierarchyAccess replays the data addresses of one
// 80k-instruction program run through the default hierarchy, so L1
// misses take the L2 path at the rate a real extraction sees.
func BenchmarkHierarchyAccess(b *testing.B) {
	p, err := prog.Generate(prog.AllFamilies()[0], rng.New(300), "t", 300)
	if err != nil {
		b.Fatal(err)
	}
	var addrs []uint64
	trace.MustExec(p, trace.Config{MaxInstructions: 80000}, trace.SinkFunc(func(e *trace.Event) {
		if e.Op.IsMem() {
			addrs = append(addrs, e.Addr)
		}
	}))
	h := NewDefaultHierarchy()
	b.ResetTimer()
	l1, l2 := 0, 0
	for i := 0; i < b.N; i++ {
		if i%len(addrs) == 0 {
			h.Reset()
		}
		m1, m2 := h.Access(addrs[i%len(addrs)])
		if m1 {
			l1++
		}
		if m2 {
			l2++
		}
	}
	if b.N >= len(addrs) && l2 == 0 {
		b.Fatal("no L2 misses")
	}
	b.ReportMetric(float64(l1)/float64(b.N), "l1-miss/access")
}
