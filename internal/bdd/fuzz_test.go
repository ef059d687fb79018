package bdd

import "testing"

// The fuzz targets drive the manager with a byte-coded op sequence over a
// small variable set and check the ROBDD canonical-form contract after every
// step: equal Boolean functions have equal Refs, no node is redundant, and
// levels strictly increase toward the terminals. A shadow truth table
// (uint64, one bit per assignment of up to 6 variables) gives an independent
// ground truth that survives GC.

const fuzzVars = 6

// varMask returns the truth table of variable v: bit r is set when
// assignment r (bit i of r = value of variable i) makes v true.
func varMask(v int) uint64 {
	var mask uint64
	for r := 0; r < 1<<fuzzVars; r++ {
		if r>>v&1 == 1 {
			mask |= 1 << r
		}
	}
	return mask
}

const fullMask = ^uint64(0) // 2^fuzzVars = 64 assignments, one bit each

// evalRef walks the BDD for one variable assignment.
func evalRef(m *Manager, f Ref, assign int) bool {
	for !IsTerminal(f) {
		if assign>>int(m.VarOf(f))&1 == 1 {
			f = m.High(f)
		} else {
			f = m.Low(f)
		}
	}
	return f == True
}

// tableOf recomputes f's full truth table from the node structure.
func tableOf(m *Manager, f Ref) uint64 {
	var mask uint64
	for r := 0; r < 1<<fuzzVars; r++ {
		if evalRef(m, f, r) {
			mask |= 1 << r
		}
	}
	return mask
}

// checkStructure asserts the ROBDD structural invariants over every live
// node — strictly increasing levels, no redundant tests — and that the
// unique subtables and the free list partition the node store exactly:
// every live node sits exactly once in its own level's subtable, in the
// bucket its children hash to; no two chained nodes share a (level, low,
// high) key; no freed slot is reachable from a chain; each subtable's count
// equals its chain length; and the chains hold exactly the live nodes.
func checkStructure(t *testing.T, m *Manager) {
	t.Helper()
	seen := make([]bool, len(m.nodes))
	keys := make(map[[3]Ref]Ref)
	chained := 0
	for l := range m.levels {
		st := &m.levels[l]
		count := 0
		for b, head := range st.buckets {
			for r := head; r != 0; r = m.nodes[r].next {
				if r < 2 || int(r) >= len(m.nodes) {
					t.Fatalf("level %d bucket %d chains out-of-range ref %d", l, b, r)
				}
				if seen[r] {
					t.Fatalf("node %d is chained twice (or a chain cycles)", r)
				}
				seen[r] = true
				n := m.nodes[r]
				if n.level == deadLevel {
					t.Fatalf("freed slot %d is reachable from level %d's chains", r, l)
				}
				if n.level != Var(l) {
					t.Fatalf("node %d at level %d is chained in level %d's subtable", r, n.level, l)
				}
				if got := st.slot(n.low, n.high); got != uint64(b) {
					t.Fatalf("node %d sits in bucket %d, its children hash to %d", r, b, got)
				}
				key := [3]Ref{Ref(n.level), n.low, n.high}
				if dup, ok := keys[key]; ok {
					t.Fatalf("nodes %d and %d share key %v (hash-consing broke)", dup, r, key)
				}
				keys[key] = r
				if n.low == n.high {
					t.Fatalf("redundant node %d: low == high == %d", r, n.low)
				}
				for _, child := range []Ref{n.low, n.high} {
					if m.nodes[child].level == deadLevel {
						t.Fatalf("node %d has freed child %d", r, child)
					}
					if !IsTerminal(child) && m.nodes[child].level <= n.level {
						t.Fatalf("node %d at level %d has child %d at level %d (order violated)",
							r, n.level, child, m.nodes[child].level)
					}
				}
				count++
			}
		}
		if count != int(st.count) {
			t.Fatalf("level %d: subtable count %d, chains hold %d nodes", l, st.count, count)
		}
		chained += count
	}
	free := 0
	for r := m.freeHead; r != 0; r = m.nodes[r].next {
		if seen[r] {
			t.Fatalf("slot %d is both chained and free (or the free list cycles)", r)
		}
		if m.nodes[r].level != deadLevel {
			t.Fatalf("free slot %d is not marked dead", r)
		}
		seen[r] = true
		free++
	}
	if free != m.freeCount {
		t.Fatalf("free list holds %d slots, freeCount says %d", free, m.freeCount)
	}
	for i := 2; i < len(m.nodes); i++ {
		if !seen[i] {
			t.Fatalf("slot %d is neither chained nor free", i)
		}
	}
	if live := m.NumNodes() - 2; chained != live {
		t.Fatalf("chains hold %d nodes, %d are live", chained, live)
	}
}

// shadow pairs a protected Ref with its independently tracked truth table.
type shadow struct {
	ref  Ref
	mask uint64
}

// checkShadows verifies semantics and canonicity of every tracked function.
func checkShadows(t *testing.T, m *Manager, pool []shadow) {
	t.Helper()
	for i, s := range pool {
		if got := tableOf(m, s.ref); got != s.mask {
			t.Fatalf("pool[%d]: BDD computes %064b, shadow says %064b", i, got, s.mask)
		}
		if (s.mask == 0) != (s.ref == False) || (s.mask == fullMask) != (s.ref == True) {
			t.Fatalf("pool[%d]: terminal canonicity violated (mask %064b, ref %d)", i, s.mask, s.ref)
		}
		for j := 0; j < i; j++ {
			if (pool[j].mask == s.mask) != (pool[j].ref == s.ref) {
				t.Fatalf("canonicity violated: pool[%d] and pool[%d] have equal functions %v but equal refs %v",
					j, i, pool[j].mask == s.mask, pool[j].ref == s.ref)
			}
		}
	}
}

// FuzzMk interleaves node creation through the public constructors and
// binary ops, asserting after every step that the result is canonical and
// the node store stays well-formed. GC never runs here; this target isolates
// mk/hash-consing from collection.
func FuzzMk(f *testing.F) {
	f.Add([]byte{0, 1, 8, 2, 9, 16, 3})
	f.Add([]byte{5, 5, 10, 10, 20, 20, 7, 7})
	f.Add([]byte{31, 17, 23, 4, 0, 12, 29, 6, 18})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, vars := newMgr(t, fuzzVars)
		pool := []shadow{{False, 0}, {True, fullMask}}
		for _, v := range vars {
			pool = append(pool, shadow{m.VarRef(v), varMask(int(v))})
		}
		for _, b := range data {
			if len(pool) > 64 {
				break
			}
			a := pool[int(b)%len(pool)]
			c := pool[int(b/7)%len(pool)]
			var s shadow
			switch b % 5 {
			case 0:
				s = shadow{m.And(a.ref, c.ref), a.mask & c.mask}
			case 1:
				s = shadow{m.Or(a.ref, c.ref), a.mask | c.mask}
			case 2:
				s = shadow{m.Xor(a.ref, c.ref), a.mask ^ c.mask}
			case 3:
				s = shadow{m.Not(a.ref), ^a.mask & fullMask}
			case 4:
				s = shadow{m.Imp(a.ref, c.ref), (^a.mask | c.mask) & fullMask}
			}
			pool = append(pool, s)
			// Rebuilding an equal function must hand back the same Ref.
			if again := m.Or(m.And(s.ref, True), False); again != s.ref {
				t.Fatalf("hash-consing broke: rebuilt %d, got %d", s.ref, again)
			}
		}
		checkStructure(t, m)
		checkShadows(t, m, pool)
	})
}

// FuzzApplyGC interleaves Apply operations with Ref/Deref, GC, adjacent-
// level swaps and sifting passes, checking after every collection or
// reordering step that protected functions survive with identical semantics
// and that canonicity holds across the boundary (freed slots recycled by mk,
// and nodes rewritten or relinked by a swap, must not produce duplicate or
// corrupted nodes).
func FuzzApplyGC(f *testing.F) {
	f.Add([]byte{0, 1, 4, 2, 4, 9, 4})
	f.Add([]byte{3, 3, 4, 5, 4, 3, 4, 6, 4})
	f.Add([]byte{12, 25, 4, 17, 4, 8, 30, 4, 2, 4, 11})
	f.Add([]byte{0, 1, 9, 2, 15, 17, 3, 7, 11, 4, 31, 6, 23, 5, 47, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, vars := newMgr(t, fuzzVars)
		var pool []shadow
		push := func(ref Ref, mask uint64) {
			m.Ref(ref)
			pool = append(pool, shadow{ref, mask})
		}
		push(m.VarRef(vars[0]), varMask(0))
		for _, b := range data {
			if len(pool) > 48 {
				break
			}
			a := pool[int(b)%len(pool)]
			c := pool[int(b/11)%len(pool)]
			switch b % 8 {
			case 0:
				push(m.And(a.ref, c.ref), a.mask&c.mask)
			case 1:
				push(m.Or(a.ref, c.ref), a.mask|c.mask)
			case 2:
				push(m.Xor(a.ref, c.ref), a.mask^c.mask)
			case 3:
				v := vars[int(b/3)%len(vars)]
				push(m.VarRef(v), varMask(int(v)))
			case 4:
				m.GC()
				checkStructure(t, m)
				checkShadows(t, m, pool)
			case 5:
				if len(pool) > 1 {
					last := pool[len(pool)-1]
					m.Deref(last.ref)
					pool = pool[:len(pool)-1]
				}
			case 6:
				push(m.Not(a.ref), ^a.mask&fullMask)
			case 7:
				if b&8 != 0 {
					m.swapLevels(Var(int(b/16) % (fuzzVars - 1)))
				} else {
					m.Reorder(ReorderConfig{})
				}
				checkStructure(t, m)
				checkShadows(t, m, pool)
			}
		}
		m.GC()
		checkStructure(t, m)
		checkShadows(t, m, pool)
	})
}
