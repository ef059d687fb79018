package bdd

import "math/bits"

// The computed cache, BuDDy/CUDD-style: a direct-mapped array of packed
// entries. A store overwrites whatever shared its slot, so the cache is
// lossy — a later lookup of the evicted operation misses and the operation is
// recomputed. That cannot change any result: within one cache generation no
// node is freed, so a recomputation hash-conses onto the nodes the first
// computation allocated and returns the same Ref without allocating. Node
// counts, node-limit overflow points, GC points and reordering decisions are
// therefore the same as with an exact memo table.
//
// Invalidation is O(1): every entry carries the generation it was stored in,
// and GC, swapLevels, Reset and ClearCache just start a new generation.

// cacheKey identifies a memoised operation. kindOp packs the operation
// family (kind) with the Apply operator, which keeps the key at four words:
// the compiler then holds it in registers instead of spilling it to the
// stack on every lookup. c doubles as the extra operand (ITE third argument,
// quantification cube, substitution id, ...).
type cacheKey struct {
	kindOp  uint32
	a, b, c Ref
}

func newCacheKey(kind uint8, op Op, a, b, c Ref) cacheKey {
	return cacheKey{kindOp: uint32(kind)<<4 | uint32(op), a: a, b: b, c: c}
}

// cacheEntry is one slot: the operands, the result, and a tag packing the
// generation (high 24 bits), kind (4 bits) and op (4 bits).
type cacheEntry struct {
	a, b, c, r Ref
	tag        uint32
}

const (
	// minCacheSize is a fresh Manager's cache size in entries.
	minCacheSize = 1 << 12
	// maxCacheSize caps the cache (20 bytes per entry).
	maxCacheSize = 1 << 20
	// genLimit bounds the 24-bit generation; reaching it wipes the cache.
	genLimit = 1 << 24
)

func (k cacheKey) tag(gen uint32) uint32 { return gen<<8 | k.kindOp }

// cacheSlot hashes a key to its slot.
func (m *Manager) cacheSlot(k cacheKey) *cacheEntry {
	h := (uint64(uint32(k.a))|uint64(uint32(k.b))<<32)*0x9E3779B97F4A7C15 ^
		(uint64(uint32(k.c))|uint64(k.kindOp)<<32)*0xC2B2AE3D27D4EB4F
	return &m.cache[h>>m.cacheShift]
}

func (m *Manager) cacheGet(k cacheKey) (Ref, bool) {
	e := m.cacheSlot(k)
	if e.tag == k.tag(m.cacheGen) && e.a == k.a && e.b == k.b && e.c == k.c {
		m.Stats.CacheHits++
		m.obsCacheHit.Inc()
		return e.r, true
	}
	m.Stats.CacheMiss++
	m.obsCacheMiss.Inc()
	return 0, false
}

func (m *Manager) cachePut(k cacheKey, r Ref) {
	e := m.cacheSlot(k)
	if e.tag>>8 != m.cacheGen {
		m.cacheFilled++
	}
	*e = cacheEntry{a: k.a, b: k.b, c: k.c, r: r, tag: k.tag(m.cacheGen)}
}

// resizeCache replaces the cache with n (a power of two) empty entries and
// starts a new generation.
func (m *Manager) resizeCache(n int) {
	m.cache = make([]cacheEntry, n)
	m.cacheShift = uint8(64 - bits.TrailingZeros(uint(n)))
	m.invalidateCache()
}

// growCache keeps the cache at least as large as the live node count, up to
// maxCacheSize. It runs on node allocation; the entries it drops are only
// lost memoisation.
func (m *Manager) growCache() {
	if n := len(m.cache); n < maxCacheSize && m.NumNodes() > n {
		m.resizeCache(2 * n)
	}
}

// invalidateCache starts a new cache generation, publishing the ending
// generation's occupancy first.
func (m *Manager) invalidateCache() {
	if len(m.cache) > 0 {
		m.obsCacheOccupancy.Set(m.cacheFilled * 1000 / int64(len(m.cache)))
	}
	m.cacheFilled = 0
	m.cacheGen++
	if m.cacheGen == genLimit {
		// Stale entries would alias the recycled generation numbers.
		clear(m.cache)
		m.cacheGen = 1
	}
}

// ClearCache invalidates the operation cache, in O(1), without freeing
// nodes.
func (m *Manager) ClearCache() { m.invalidateCache() }
