package bdd

import "math/bits"

// The unique table, CUDD-style: one open-hash subtable per level. A
// subtable is a power-of-two array of bucket heads; the nodes of a bucket
// are chained through node.next, so the table costs one Ref per bucket on
// top of the node store. Within a level a node is identified by its
// children alone, which is what lets swapLevels and GC work on one level's
// chains at a time instead of on the whole table.
//
// Ref 0 (False) is never hashed, so it doubles as the empty bucket and the
// end-of-chain marker.

// minBuckets is a subtable's size on its first insertion. Subtables start
// empty: encodings with many sparsely populated levels (and deep chains of
// single-node levels) should not pay for buckets they never use.
const minBuckets = 8

// subtable is the unique table of one level.
type subtable struct {
	buckets []Ref // chain heads; 0 = empty
	count   int32 // nodes chained in this subtable
	shift   uint8 // 64 - log2(len(buckets))
}

// slot returns the bucket index of the pair (low, high): a multiplicative
// (Fibonacci) hash of the packed children, taking the top bits.
func (st *subtable) slot(low, high Ref) uint64 {
	return (uint64(uint32(low))<<32 | uint64(uint32(high))) * 0x9E3779B97F4A7C15 >> st.shift
}

// lookup returns the node at this subtable's level with children (low,
// high), or 0 when there is none.
func (m *Manager) lookup(st *subtable, low, high Ref) Ref {
	if st.count == 0 {
		return 0
	}
	for r := st.buckets[st.slot(low, high)]; r != 0; r = m.nodes[r].next {
		if n := &m.nodes[r]; n.low == low && n.high == high {
			return r
		}
	}
	return 0
}

// link chains the live node r into the subtable of its level and grows the
// subtable once it passes load factor 1.
func (m *Manager) link(r Ref) {
	st := &m.levels[m.nodes[r].level]
	if len(st.buckets) == 0 {
		st.resize(minBuckets)
	}
	m.chain(st, r)
	if int(st.count) > len(st.buckets) {
		m.grow(st)
	}
}

// chain pushes node r onto the head of its bucket in st.
func (m *Manager) chain(st *subtable, r Ref) {
	n := &m.nodes[r]
	h := st.slot(n.low, n.high)
	n.next = st.buckets[h]
	st.buckets[h] = r
	st.count++
}

// resize makes buckets an empty array of n (a power of two) heads, reusing
// the backing array when it is large enough.
func (st *subtable) resize(n int) {
	if cap(st.buckets) >= n {
		st.buckets = st.buckets[:n]
		clear(st.buckets)
	} else {
		st.buckets = make([]Ref, n)
	}
	st.shift = uint8(64 - bits.TrailingZeros(uint(n)))
}

// grow doubles a subtable and rehashes its chains. The nodes are relinked in
// the order they are unlinked, so the resulting chains depend only on the
// subtable's contents and history — never on whether a reused (pooled)
// backing array already had room — and reordering stays deterministic.
func (m *Manager) grow(st *subtable) {
	refs := m.unlinkAll(st, m.growScratch[:0])
	st.resize(2 * len(st.buckets))
	for _, r := range refs {
		m.chain(st, r)
	}
	m.growScratch = refs[:0]
}

// unlinkAll empties a subtable, appending its nodes to dst in bucket order
// (and chain order within a bucket). The bucket array keeps its size.
func (m *Manager) unlinkAll(st *subtable, dst []Ref) []Ref {
	for i, r := range st.buckets {
		for r != 0 {
			dst = append(dst, r)
			r = m.nodes[r].next
		}
		st.buckets[i] = 0
	}
	st.count = 0
	return dst
}
