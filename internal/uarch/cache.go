package uarch

import (
	"fmt"
	"math/bits"
)

// Cache is a set-associative cache with true-LRU replacement. Only tag
// state is modelled (hit/miss behaviour); data movement is irrelevant to
// the event counts the detectors consume.
type Cache struct {
	ways     int
	sets     int
	lineBits uint
	setBits  uint
	setMask  uint64
	set      []cacheSet
	// wayMask has the top bit of each real way's signature byte set.
	wayMask uint64
}

// maxWays is the widest set a signature word can describe.
const maxWays = 8

// cacheSet is one set. tags holds the tags from most to least recently
// used; an empty way holds invalidTag, and empty ways always sit behind
// the valid ones. Ways at and past the cache's associativity are never
// read: a miss shifts the least recently used tag into them. sigs holds
// one 8-bit signature per way, byte w for tags[w], in the same order,
// so a lookup compares all of them at once and confirms the candidates
// against the full tag.
type cacheSet struct {
	sigs uint64
	tags [maxWays]uint64
}

// emptySet is a set with every way empty.
var emptySet = cacheSet{tags: [maxWays]uint64{invalidTag, invalidTag, invalidTag, invalidTag, invalidTag, invalidTag, invalidTag, invalidTag}}

// SWAR constants: one in every byte, and the top bit of every byte.
const (
	lowBits  = 0x0101010101010101
	highBits = 0x8080808080808080
)

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
	if ways > maxWays {
		return nil, fmt.Errorf("uarch: %d ways exceeds the %d a set supports", ways, maxWays)
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
		set:      make([]cacheSet, sets),
		wayMask:  highBits >> (8 * (maxWays - ways)),
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
// it hit. A hit at way 0 returns at once. Otherwise only the ways whose
// signature byte matches the tag's are compared, most recently used
// first, so a miss seldom reads a tag past way 0. A hit moves the tag
// to the front, shifting the ways before it back by one. A miss drops
// the last way, empty or least recently used, the same way.
func (c *Cache) Access(addr uint64) bool {
	line := addr >> c.lineBits
	s := &c.set[line&c.setMask]
	tag := line >> c.setBits
	if s.tags[0] == tag {
		return true
	}
	sig := signature(tag)
	// Has-zero-byte test on sigs XOR the broadcast signature: the lowest
	// flagged byte is always a true match, higher ones may be false
	// positives, and the tag compare settles both.
	x := s.sigs ^ sig*lowBits
	for cand := (x - lowBits) &^ x & c.wayMask; cand != 0; cand &= cand - 1 {
		w := bits.TrailingZeros64(cand) >> 3
		if s.tags[w] == tag {
			for i := w; i > 0; i-- {
				s.tags[i] = s.tags[i-1]
			}
			s.tags[0] = tag
			below := uint64(1)<<(8*w) - 1
			s.sigs = s.sigs&^(below<<8|0xff) | (s.sigs&below)<<8 | sig
			return true
		}
	}
	t := &s.tags
	*t = [maxWays]uint64{tag, t[0], t[1], t[2], t[3], t[4], t[5], t[6]}
	s.sigs = s.sigs<<8 | sig
	return false
}

// signature folds a tag to the byte its way keeps in the set's
// signature word. Any fold is correct, since every candidate is
// confirmed; a multiplicative hash spreads tags that differ only in
// high bits.
func signature(tag uint64) uint64 {
	return tag * 0x9e3779b97f4a7c15 >> 56
}

// Reset invalidates every line.
func (c *Cache) Reset() {
	for i := range c.set {
		c.set[i] = emptySet
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
