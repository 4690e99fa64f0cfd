package uarch

import "fmt"

// Cache is a set-associative cache with true-LRU replacement. Only tag
// state is modelled (hit/miss behaviour); data movement is irrelevant to
// the event counts the detectors consume.
type Cache struct {
	ways     int
	sets     int
	lineBits uint
	setBits  uint
	setMask  uint64
	// tags[set*ways+way] is the way's tag and age[set*ways+way] the clock
	// of its last access; age 0 marks an invalid way.
	tags  []uint64
	age   []uint64
	clock uint64
	// lastLine is the line the previous access hit or filled, held in
	// way lastWay: a repeat access to it is a hit without a set scan,
	// unless a Reset has invalidated that way since.
	lastLine uint64
	lastWay  int
}

// NewCache builds a cache of the given total size in bytes with the given
// associativity and line size (both powers of two).
func NewCache(sizeBytes, ways, lineSize int) (*Cache, error) {
	if sizeBytes <= 0 || ways <= 0 || lineSize <= 0 {
		return nil, fmt.Errorf("uarch: non-positive cache geometry %d/%d/%d", sizeBytes, ways, lineSize)
	}
	if lineSize&(lineSize-1) != 0 {
		return nil, fmt.Errorf("uarch: line size %d not a power of two", lineSize)
	}
	lines := sizeBytes / lineSize
	if lines == 0 || lines%ways != 0 {
		return nil, fmt.Errorf("uarch: size %d not divisible into %d-way sets of %dB lines", sizeBytes, ways, lineSize)
	}
	sets := lines / ways
	if sets&(sets-1) != 0 {
		return nil, fmt.Errorf("uarch: set count %d not a power of two", sets)
	}
	n := sets * ways
	return &Cache{
		ways:     ways,
		sets:     sets,
		lineBits: log2(lineSize),
		setBits:  log2(sets),
		setMask:  uint64(sets - 1),
		tags:     make([]uint64, n),
		age:      make([]uint64, n),
	}, nil
}

// MustCache is NewCache that panics on configuration errors; for use with
// literal geometries.
func MustCache(sizeBytes, ways, lineSize int) *Cache {
	c, err := NewCache(sizeBytes, ways, lineSize)
	if err != nil {
		panic(err)
	}
	return c
}

// Access looks up addr, filling the line on a miss, and reports whether
// it hit.
func (c *Cache) Access(addr uint64) bool {
	line := addr >> c.lineBits
	c.clock++
	if line == c.lastLine && c.age[c.lastWay] != 0 {
		c.age[c.lastWay] = c.clock
		return true
	}
	base := int(line&c.setMask) * c.ways
	tag := line >> c.setBits
	age := c.age[base : base+c.ways]
	tags := c.tags[base : base+c.ways]
	tags = tags[:len(age)] // one length for both: no bounds checks below
	victim, oldest := 0, age[0]
	for w, a := range age {
		if a != 0 && tags[w] == tag {
			age[w] = c.clock
			c.lastLine, c.lastWay = line, base+w
			return true
		}
		if a < oldest {
			victim, oldest = w, a
		}
	}
	tags[victim] = tag
	age[victim] = c.clock
	c.lastLine, c.lastWay = line, base+victim
	return false
}

// Reset invalidates every line.
func (c *Cache) Reset() {
	clear(c.age)
	c.clock = 0
}

// Sets returns the number of sets (useful for tests).
func (c *Cache) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

func log2(v int) uint {
	s := uint(0)
	for 1<<s < v {
		s++
	}
	return s
}

// Hierarchy is a two-level data-cache hierarchy: L2 is accessed only on
// L1 misses, mirroring an inclusive lookup path.
type Hierarchy struct {
	L1 *Cache
	L2 *Cache
}

// NewDefaultHierarchy returns a 32 KiB 8-way L1 with 64 B lines backed by
// a 256 KiB 8-way L2 — a desktop-class configuration of the AO486-era
// cores the paper extends.
func NewDefaultHierarchy() *Hierarchy {
	return &Hierarchy{
		L1: MustCache(32<<10, 8, 64),
		L2: MustCache(256<<10, 8, 64),
	}
}

// Access performs a data access and reports (l1Miss, l2Miss).
func (h *Hierarchy) Access(addr uint64) (l1Miss, l2Miss bool) {
	if h.L1.Access(addr) {
		return false, false
	}
	return true, !h.L2.Access(addr)
}

// Reset clears both levels.
func (h *Hierarchy) Reset() {
	h.L1.Reset()
	h.L2.Reset()
}
