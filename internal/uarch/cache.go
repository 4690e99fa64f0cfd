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
	// tags[set*ways : (set+1)*ways] holds the set's tags from most to
	// least recently used. An empty way holds invalidTag, and empty ways
	// always sit behind the valid ones.
	tags []uint64
}

// invalidTag marks an empty way. A tag is an address shifted right by
// lineBits+setBits, and NewCache rejects the one geometry where that
// shift is zero, so a tag's top bit is always clear.
const invalidTag = ^uint64(0)

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
	if sets == 1 && lineSize == 1 {
		return nil, fmt.Errorf("uarch: one-set cache of byte lines %d/%d/%d: a tag could be the invalid marker", sizeBytes, ways, lineSize)
	}
	c := &Cache{
		ways:     ways,
		sets:     sets,
		lineBits: log2(lineSize),
		setBits:  log2(sets),
		setMask:  uint64(sets - 1),
		tags:     make([]uint64, sets*ways),
	}
	c.Reset()
	return c, nil
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
// it hit. A hit at way 0 returns at once. A hit further down moves the
// tag to the front, shifting the ways before it back by one. A miss
// drops the last way, empty or least recently used, the same way.
func (c *Cache) Access(addr uint64) bool {
	line := addr >> c.lineBits
	base := int(line&c.setMask) * c.ways
	tag := line >> c.setBits
	tags := c.tags[base : base+c.ways]
	if tags[0] == tag {
		return true
	}
	for w := 1; w < len(tags); w++ {
		if tags[w] == tag {
			copy(tags[1:w+1], tags[:w])
			tags[0] = tag
			return true
		}
	}
	copy(tags[1:], tags)
	tags[0] = tag
	return false
}

// Reset invalidates every line.
func (c *Cache) Reset() {
	for i := range c.tags {
		c.tags[i] = invalidTag
	}
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
