package bdd

import "testing"

// TestCacheGenerationWrap: when the 24-bit generation counter wraps, an
// entry stored under a generation number that comes round again must not
// hit.
func TestCacheGenerationWrap(t *testing.T) {
	m := New()
	key := newCacheKey(kindApply, OpAnd, 2, 3, 0)
	m.cacheGen = 1
	m.cachePut(key, 7)
	if r, ok := m.cacheGet(key); !ok || r != 7 {
		t.Fatalf("cacheGet = %d, %v; want 7, true", r, ok)
	}
	m.cacheGen = genLimit - 1 // as if 2^24-2 invalidations had passed
	m.invalidateCache()
	if m.cacheGen != 1 {
		t.Fatalf("generation after wrap = %d, want 1", m.cacheGen)
	}
	if _, ok := m.cacheGet(key); ok {
		t.Fatal("entry from the first generation 1 hit after the counter wrapped")
	}
}
