package bdd

import "fmt"

// Boolean operations with memoisation. All binary connectives are routed
// through a single Apply with per-operator terminal rules; ITE, negation,
// quantification, substitution and restriction have dedicated recursions.

// Op selects a binary Boolean connective for Apply.
type Op uint8

// Binary connectives.
const (
	OpAnd Op = iota + 1
	OpOr
	OpXor
	OpNand
	OpNor
	OpImp   // a implies b
	OpBiimp // a iff b
	OpDiff  // a and not b
)

// opNames indexes Op for diagnostics.
var opNames = [...]string{
	OpAnd: "and", OpOr: "or", OpXor: "xor", OpNand: "nand",
	OpNor: "nor", OpImp: "imp", OpBiimp: "biimp", OpDiff: "diff",
}

func (op Op) String() string {
	if int(op) < len(opNames) && opNames[op] != "" {
		return opNames[op]
	}
	return "op?"
}

const (
	kindApply = iota + 1
	kindNot
	kindIte
	kindExists
	kindForAll
	kindAndExists
	kindCompose
	kindReplace
	kindRestrict
	kindSatCount
)

// And returns a ∧ b.
func (m *Manager) And(a, b Ref) Ref { return m.Apply(OpAnd, a, b) }

// Or returns a ∨ b.
func (m *Manager) Or(a, b Ref) Ref { return m.Apply(OpOr, a, b) }

// Xor returns a ⊕ b.
func (m *Manager) Xor(a, b Ref) Ref { return m.Apply(OpXor, a, b) }

// Imp returns a → b.
func (m *Manager) Imp(a, b Ref) Ref { return m.Apply(OpImp, a, b) }

// Biimp returns a ↔ b.
func (m *Manager) Biimp(a, b Ref) Ref { return m.Apply(OpBiimp, a, b) }

// Diff returns a ∧ ¬b.
func (m *Manager) Diff(a, b Ref) Ref { return m.Apply(OpDiff, a, b) }

// AndN folds And over its arguments (True for none).
func (m *Manager) AndN(fs ...Ref) Ref {
	acc := True
	for _, f := range fs {
		acc = m.And(acc, f)
		if acc == False {
			return False
		}
	}
	return acc
}

// OrN folds Or over its arguments (False for none).
func (m *Manager) OrN(fs ...Ref) Ref {
	acc := False
	for _, f := range fs {
		acc = m.Or(acc, f)
		if acc == True {
			return True
		}
	}
	return acc
}

// applyTerminal resolves op when either operand is constant or operands are
// equal. ok=false means no shortcut applies.
func applyTerminal(op Op, a, b Ref) (Ref, bool) {
	switch op {
	case OpAnd:
		switch {
		case a == False || b == False:
			return False, true
		case a == True:
			return b, true
		case b == True:
			return a, true
		case a == b:
			return a, true
		}
	case OpOr:
		switch {
		case a == True || b == True:
			return True, true
		case a == False:
			return b, true
		case b == False:
			return a, true
		case a == b:
			return a, true
		}
	case OpXor:
		switch {
		case a == b:
			return False, true
		case a == False:
			return b, true
		case b == False:
			return a, true
		}
	case OpNand:
		if a == False || b == False {
			return True, true
		}
	case OpNor:
		if a == True || b == True {
			return False, true
		}
	case OpImp:
		switch {
		case a == False || b == True:
			return True, true
		case a == True:
			return b, true
		case a == b:
			return True, true
		}
	case OpBiimp:
		switch {
		case a == b:
			return True, true
		case a == True:
			return b, true
		case b == True:
			return a, true
		}
	case OpDiff:
		switch {
		case a == False || b == True:
			return False, true
		case b == False:
			return a, true
		case a == b:
			return False, true
		}
	}
	if IsTerminal(a) && IsTerminal(b) {
		av, bv := a == True, b == True
		var r bool
		switch op {
		case OpAnd:
			r = av && bv
		case OpOr:
			r = av || bv
		case OpXor:
			r = av != bv
		case OpNand:
			r = !(av && bv)
		case OpNor:
			r = !(av || bv)
		case OpImp:
			r = !av || bv
		case OpBiimp:
			r = av == bv
		case OpDiff:
			r = av && !bv
		}
		if r {
			return True, true
		}
		return False, true
	}
	return False, false
}

// Apply computes op(a, b) by Shannon expansion with memoisation.
func (m *Manager) Apply(op Op, a, b Ref) Ref {
	if r, ok := applyTerminal(op, a, b); ok {
		return r
	}
	// Normalise commutative operators for better cache hit rates.
	switch op {
	case OpAnd, OpOr, OpXor, OpNand, OpNor, OpBiimp:
		if a > b {
			a, b = b, a
		}
	}
	key := newCacheKey(kindApply, op, a, b, 0)
	if r, ok := m.cacheGet(key); ok {
		return r
	}
	la, lb := m.level(a), m.level(b)
	top := la
	if lb < top {
		top = lb
	}
	a0, a1 := a, a
	if la == top {
		a0, a1 = m.nodes[a].low, m.nodes[a].high
	}
	b0, b1 := b, b
	if lb == top {
		b0, b1 = m.nodes[b].low, m.nodes[b].high
	}
	low := m.Apply(op, a0, b0)
	high := m.Apply(op, a1, b1)
	r := m.mk(top, low, high)
	m.cachePut(key, r)
	return r
}

// Not returns ¬f.
func (m *Manager) Not(f Ref) Ref {
	switch f {
	case False:
		return True
	case True:
		return False
	}
	key := newCacheKey(kindNot, 0, f, 0, 0)
	if r, ok := m.cacheGet(key); ok {
		return r
	}
	n := m.nodes[f]
	r := m.mk(n.level, m.Not(n.low), m.Not(n.high))
	m.cachePut(key, r)
	return r
}

// Ite returns if f then g else h.
func (m *Manager) Ite(f, g, h Ref) Ref {
	switch {
	case f == True:
		return g
	case f == False:
		return h
	case g == h:
		return g
	case g == True && h == False:
		return f
	case g == False && h == True:
		return m.Not(f)
	}
	key := newCacheKey(kindIte, 0, f, g, h)
	if r, ok := m.cacheGet(key); ok {
		return r
	}
	top := m.level(f)
	if l := m.level(g); l < top {
		top = l
	}
	if l := m.level(h); l < top {
		top = l
	}
	cof := func(x Ref) (Ref, Ref) {
		if m.level(x) == top {
			return m.nodes[x].low, m.nodes[x].high
		}
		return x, x
	}
	f0, f1 := cof(f)
	g0, g1 := cof(g)
	h0, h1 := cof(h)
	r := m.mk(top, m.Ite(f0, g0, h0), m.Ite(f1, g1, h1))
	m.cachePut(key, r)
	return r
}

// Cube represents a set of variables for quantification, as a sorted list.
type Cube struct {
	vars []Var
}

// NewCube returns a Cube over the given variables (deduplicated, sorted by
// current level). A Cube captures the variables' *levels*: reordering the
// Manager invalidates previously built cubes — rebuild them after Reorder.
func (m *Manager) NewCube(vars ...Var) Cube {
	sorted := make([]Var, 0, len(vars))
	for _, v := range vars {
		sorted = append(sorted, m.varToLevel(v))
	}
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	out := sorted[:0]
	var prev Var = -1
	for _, v := range sorted {
		if v != prev {
			out = append(out, v)
			prev = v
		}
	}
	return Cube{vars: out}
}

// Vars returns the cube's variables in ascending order.
func (c Cube) Vars() []Var { return c.vars }

// cubeRef builds the product BDD of the cube, used as cache identity.
func (m *Manager) cubeRef(c Cube) Ref {
	r := True
	for i := len(c.vars) - 1; i >= 0; i-- {
		r = m.mk(c.vars[i], False, r)
	}
	return r
}

// contains reports whether the cube contains v (binary search).
func (c Cube) contains(v Var) bool {
	lo, hi := 0, len(c.vars)
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case c.vars[mid] == v:
			return true
		case c.vars[mid] < v:
			lo = mid + 1
		default:
			hi = mid
		}
	}
	return false
}

// Exists returns ∃vars. f.
func (m *Manager) Exists(f Ref, cube Cube) Ref {
	if len(cube.vars) == 0 {
		return f
	}
	return m.quant(f, cube, m.cubeRef(cube), OpOr, kindExists)
}

// ForAll returns ∀vars. f.
func (m *Manager) ForAll(f Ref, cube Cube) Ref {
	if len(cube.vars) == 0 {
		return f
	}
	return m.quant(f, cube, m.cubeRef(cube), OpAnd, kindForAll)
}

func (m *Manager) quant(f Ref, cube Cube, cubeID Ref, combine Op, kind uint8) Ref {
	if IsTerminal(f) {
		return f
	}
	lv := m.level(f)
	if lv > cube.vars[len(cube.vars)-1] {
		return f // below all quantified variables
	}
	key := newCacheKey(kind, 0, f, cubeID, 0)
	if r, ok := m.cacheGet(key); ok {
		return r
	}
	n := m.nodes[f]
	low := m.quant(n.low, cube, cubeID, combine, kind)
	var r Ref
	if cube.contains(lv) {
		// Short-circuit: ∨ with True / ∧ with False.
		if (combine == OpOr && low == True) || (combine == OpAnd && low == False) {
			r = low
		} else {
			high := m.quant(n.high, cube, cubeID, combine, kind)
			r = m.Apply(combine, low, high)
		}
	} else {
		high := m.quant(n.high, cube, cubeID, combine, kind)
		r = m.mk(lv, low, high)
	}
	m.cachePut(key, r)
	return r
}

// AndExists computes ∃cube. (f ∧ g) in one pass (the relational product),
// avoiding the intermediate conjunction.
func (m *Manager) AndExists(f, g Ref, cube Cube) Ref {
	return m.andExists(f, g, cube, m.cubeRef(cube))
}

func (m *Manager) andExists(f, g Ref, cube Cube, cubeID Ref) Ref {
	switch {
	case f == False || g == False:
		return False
	case f == True && g == True:
		return True
	case f == True:
		return m.Exists(g, cube)
	case g == True:
		return m.Exists(f, cube)
	case f == g:
		return m.Exists(f, cube)
	}
	if f > g {
		f, g = g, f
	}
	key := newCacheKey(kindAndExists, 0, f, g, cubeID)
	if r, ok := m.cacheGet(key); ok {
		return r
	}
	lf, lg := m.level(f), m.level(g)
	top := lf
	if lg < top {
		top = lg
	}
	f0, f1 := f, f
	if lf == top {
		f0, f1 = m.nodes[f].low, m.nodes[f].high
	}
	g0, g1 := g, g
	if lg == top {
		g0, g1 = m.nodes[g].low, m.nodes[g].high
	}
	var r Ref
	if cube.contains(top) {
		low := m.andExists(f0, g0, cube, cubeID)
		if low == True {
			r = True
		} else {
			high := m.andExists(f1, g1, cube, cubeID)
			r = m.Or(low, high)
		}
	} else {
		low := m.andExists(f0, g0, cube, cubeID)
		high := m.andExists(f1, g1, cube, cubeID)
		r = m.mk(top, low, high)
	}
	m.cachePut(key, r)
	return r
}

// Restrict fixes variables to constants: assignment maps Var to value. It is
// the simultaneous cofactor of f.
func (m *Manager) Restrict(f Ref, assignment map[Var]bool) Ref {
	if len(assignment) == 0 {
		return f
	}
	// Re-key the assignment by level and build a literal cube as cache
	// identity.
	byLevel := make(map[Var]bool, len(assignment))
	vars := make([]Var, 0, len(assignment))
	for v, val := range assignment {
		byLevel[m.varToLevel(v)] = val
		//syreplint:ignore maporder NewCube below sorts and dedups its arguments
		vars = append(vars, v)
	}
	cube := m.NewCube(vars...)
	id := True
	for i := len(cube.vars) - 1; i >= 0; i-- {
		l := cube.vars[i]
		if byLevel[l] {
			id = m.mk(l, False, id)
		} else {
			id = m.mk(l, id, False)
		}
	}
	return m.restrict(f, byLevel, id, cube)
}

func (m *Manager) restrict(f Ref, assignment map[Var]bool, id Ref, cube Cube) Ref {
	if IsTerminal(f) {
		return f
	}
	lv := m.level(f)
	if lv > cube.vars[len(cube.vars)-1] {
		return f
	}
	key := newCacheKey(kindRestrict, 0, f, id, 0)
	if r, ok := m.cacheGet(key); ok {
		return r
	}
	n := m.nodes[f]
	var r Ref
	if val, ok := assignment[lv]; ok {
		child := n.low
		if val {
			child = n.high
		}
		r = m.restrict(child, assignment, id, cube)
	} else {
		r = m.mk(lv, m.restrict(n.low, assignment, id, cube),
			m.restrict(n.high, assignment, id, cube))
	}
	m.cachePut(key, r)
	return r
}

// Compose substitutes function g for variable v in f: f[v := g].
func (m *Manager) Compose(f Ref, v Var, g Ref) Ref {
	return m.compose(f, m.varToLevel(v), g)
}

func (m *Manager) compose(f Ref, lv Var, g Ref) Ref {
	if IsTerminal(f) || m.level(f) > lv {
		return f
	}
	key := newCacheKey(kindCompose, 0, f, g, Ref(lv))
	if r, ok := m.cacheGet(key); ok {
		return r
	}
	n := m.nodes[f]
	var r Ref
	if n.level == lv {
		r = m.Ite(g, n.high, n.low)
	} else {
		low := m.compose(n.low, lv, g)
		high := m.compose(n.high, lv, g)
		r = m.Ite(m.mk(n.level, False, True), high, low)
	}
	m.cachePut(key, r)
	return r
}

// Replacement is a prepared variable renaming for Replace. Renamings must be
// order-preserving: if v < w are both renamed then their images must satisfy
// image(v) < image(w), and images must not collide with variables in the
// support of the argument that are not themselves renamed in a way that
// would reorder levels. The encode package interleaves current/next state
// variables so that its renamings are always order-preserving.
type Replacement struct {
	to []Var // indexed by Var; identity where not renamed
	id Ref   // cache identity
}

// NewReplacement prepares the renaming pairs from→to. Like Cubes,
// Replacements capture current levels and must be rebuilt after Reorder.
func (m *Manager) NewReplacement(pairs map[Var]Var) Replacement {
	to := make([]Var, m.NumVars())
	for i := range to {
		to[i] = m.varToLevel(Var(i))
	}
	// The cache identity is the product of from-literals paired with
	// to-literals; a simple canonical encoding suffices.
	id := True
	cube := make([]Var, 0, len(pairs)*2)
	for f, t := range pairs {
		to[m.varToLevel(f)] = m.varToLevel(t)
		//syreplint:ignore maporder NewCube below sorts and dedups its arguments
		cube = append(cube, f, t)
	}
	c := m.NewCube(cube...)
	for i := len(c.vars) - 1; i >= 0; i-- {
		id = m.mk(c.vars[i], False, id)
	}
	return Replacement{to: to, id: id}
}

// Replace renames variables in f according to r. It panics when the renaming
// is not order-preserving on f's support (a programming error in the
// caller's variable layout).
func (m *Manager) Replace(f Ref, r Replacement) Ref {
	return m.replace(f, r)
}

func (m *Manager) replace(f Ref, rep Replacement) Ref {
	if IsTerminal(f) {
		return f
	}
	key := newCacheKey(kindReplace, 0, f, rep.id, 0)
	if r, ok := m.cacheGet(key); ok {
		return r
	}
	n := m.nodes[f]
	low := m.replace(n.low, rep)
	high := m.replace(n.high, rep)
	nv := rep.to[n.level]
	if !IsTerminal(low) && m.level(low) <= nv || !IsTerminal(high) && m.level(high) <= nv {
		panic(fmt.Sprintf("bdd: Replace is not order-preserving at variable %s -> %s",
			m.levelName(n.level), m.levelName(nv)))
	}
	r := m.mk(nv, low, high)
	m.cachePut(key, r)
	return r
}
