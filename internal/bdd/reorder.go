package bdd

import "time"

// Dynamic variable reordering (Rudell's sifting), the feature CUDD provides
// the SyRep authors' prototype. Reordering changes where each variable sits
// in the order while preserving every node's Boolean function and keeping
// all Refs valid: nodes are rewritten in place during adjacent-level swaps.
//
// Reordering must only run between top-level operations (like GC): the
// recursive operations keep structural assumptions on the Go stack.
//
// The Manager maintains a var↔level indirection (var2level / level2var).
// Node structure is keyed by *level*; the external API speaks *variables*.
// With the identity permutation the two coincide, which is the state before
// the first reordering.

// Level returns the current position of variable v in the order.
func (m *Manager) LevelOf(v Var) Var {
	m.ensurePerm()
	return m.var2level[v]
}

// VarAtLevel returns the variable currently at the given level.
func (m *Manager) VarAtLevel(l Var) Var {
	m.ensurePerm()
	return m.level2var[l]
}

// ensurePerm materialises the identity permutation lazily so that Managers
// that never reorder pay nothing.
func (m *Manager) ensurePerm() {
	for len(m.var2level) < len(m.varNames) {
		v := Var(len(m.var2level))
		m.var2level = append(m.var2level, v)
		m.level2var = append(m.level2var, v)
	}
}

// varToLevel translates a variable to its level (identity when no
// reordering has happened).
func (m *Manager) varToLevel(v Var) Var {
	if len(m.var2level) == 0 {
		return v
	}
	return m.var2level[v]
}

// levelToVar translates a level to the variable sitting there.
func (m *Manager) levelToVar(l Var) Var {
	if l == terminalLevel || len(m.level2var) == 0 {
		return l
	}
	return m.level2var[l]
}

// swapLevels exchanges the variables at levels x and x+1, rewriting affected
// nodes in place. Every Ref keeps denoting the same Boolean function. Only
// the subtables of levels x and x+1 are touched.
func (m *Manager) swapLevels(x Var) {
	m.ensurePerm()
	y := x + 1
	if int(y) >= len(m.level2var) {
		return
	}

	// Empty both subtables: after the swap, "level x" means a different
	// variable, so every node at x and y is relinked below. The chain walk
	// order is a function of the table's history, so the phase-3 rewrites —
	// which allocate — happen in the same order on every run.
	upper := m.unlinkAll(&m.levels[x], m.swapUpper[:0]) // level x (var u)
	lower := m.unlinkAll(&m.levels[y], m.swapLower[:0]) // level y (var v)

	// Phase 1: upper nodes that do not branch on the lower variable simply
	// move down one level.
	rewrites := m.rewrites[:0]
	for _, r := range upper {
		n := &m.nodes[r]
		if m.nodes[n.low].level == y || m.nodes[n.high].level == y {
			rewrites = append(rewrites, r)
			continue
		}
		n.level = y
		m.link(r)
	}

	// Phase 2: lower nodes keep their structure and rise to level x *if*
	// they remain referenced from above; dead ones are relinked anyway and
	// collected by the next GC. They must be relinked before the rewrites so
	// that rewrites can share them... they cannot: a risen node has the
	// lower variable on top, exactly like a rewritten upper node, and the
	// canonicity argument (distinct functions before the swap stay distinct)
	// rules out collisions.
	for _, r := range lower {
		m.nodes[r].level = x
		m.link(r)
	}

	// Phase 3: upper nodes branching on the lower variable are rewritten:
	//   u ? (v ? f11 : f10) : (v ? f01 : f00)
	// becomes
	//   v ? (u ? f11 : f01) : (u ? f10 : f00)
	// with u now living at level y and v at level x. The cofactor reads must
	// see the ORIGINAL lower nodes; phases only relabelled them (structure
	// intact), so reading children by Ref still works. Note the risen lower
	// nodes are now at level x, so "child at level y" checks below use the
	// pre-swap level via the captured cofactors.
	for _, r := range rewrites {
		n := m.nodes[r]
		f00, f01 := m.cofactorAt(n.low, x)
		f10, f11 := m.cofactorAt(n.high, x)
		inner0 := m.mk(y, f00, f10)
		inner1 := m.mk(y, f01, f11)
		if inner0 == inner1 {
			// The function does not actually depend on the upper... it
			// cannot: canonical nodes depend on their top variable, and the
			// rewrite preserves the function. inner0 == inner1 would imply
			// independence from the lower variable v; then n.low and n.high
			// could not both have branched on v in a reduced DAG. Guard
			// anyway to fail loudly instead of corrupting the table.
			panic("bdd: swapLevels produced a redundant node")
		}
		m.nodes[r] = node{level: x, low: inner0, high: inner1}
		m.link(r)
	}
	m.swapUpper, m.swapLower, m.rewrites = upper[:0], lower[:0], rewrites[:0]

	// Swap the permutation entries.
	u, v := m.level2var[x], m.level2var[y]
	m.level2var[x], m.level2var[y] = v, u
	m.var2level[u], m.var2level[v] = y, x

	// The operation cache refers to pre-swap structure.
	m.invalidateCache()
}

// cofactorAt returns the cofactors of f with respect to the variable that
// sat at the *lower* level before the swap — which phase 2 has just moved to
// level newLevel. Children not branching on it cofactor to themselves.
func (m *Manager) cofactorAt(f Ref, newLevel Var) (low, high Ref) {
	if !IsTerminal(f) && m.nodes[f].level == newLevel {
		return m.nodes[f].low, m.nodes[f].high
	}
	return f, f
}

// nodesPerLevel counts live nodes at each level.
func (m *Manager) nodesPerLevel() []int {
	m.ensurePerm()
	counts := make([]int, len(m.level2var))
	for l := range counts {
		counts[l] = int(m.levels[l].count)
	}
	return counts
}

// ReorderConfig tunes sifting.
type ReorderConfig struct {
	// MaxGrowth aborts a variable's sift when the table grows beyond this
	// factor of its starting size (default 1.2).
	MaxGrowth float64
	// MaxVars sifts only the MaxVars most populous variables (0 = all).
	MaxVars int
	// MinShare skips variables whose level holds less than this share of
	// the live nodes (default 0.01) — sifting them cannot pay for itself.
	MinShare float64
	// Stride measures the live size (a GC) only every Stride moves instead
	// of after each adjacent swap (default 4). Larger strides sift faster
	// but may park a variable slightly off its optimum.
	Stride int
	// MaxSwaps bounds the total adjacent swaps of one Reorder pass
	// (0 = unlimited). When exhausted, the current variable is parked and
	// the pass ends.
	MaxSwaps int
	// MinGain aborts the pass early when, after the first few variables,
	// the table has not shrunk by at least this fraction (default 0.02).
	MinGain float64
}

// Reorder runs one pass of Rudell's sifting: each variable (most populous
// level first) is moved through the whole order via adjacent swaps and
// parked at the position minimising the live node count. All Refs remain
// valid and denote the same functions. Reorder must not be called from
// within a Protect'ed computation's callbacks while recursive operations
// are on the stack.
func (m *Manager) Reorder(cfg ReorderConfig) {
	start := time.Now()
	if cfg.MaxGrowth <= 1 {
		cfg.MaxGrowth = 1.2
	}
	if cfg.MinShare == 0 {
		cfg.MinShare = 0.01
	}
	if cfg.Stride <= 0 {
		cfg.Stride = 4
	}
	if cfg.MinGain == 0 {
		cfg.MinGain = 0.02
	}
	m.ensurePerm()
	levels := len(m.level2var)
	if levels < 2 {
		return
	}

	// Sift variables in decreasing order of their level population.
	counts := m.nodesPerLevel()
	type cand struct {
		v     Var
		count int
	}
	cands := make([]cand, 0, levels)
	for l, c := range counts {
		cands = append(cands, cand{v: m.level2var[l], count: c})
	}
	for i := 1; i < len(cands); i++ {
		for j := i; j > 0 && cands[j].count > cands[j-1].count; j-- {
			cands[j], cands[j-1] = cands[j-1], cands[j]
		}
	}
	if cfg.MaxVars > 0 && len(cands) > cfg.MaxVars {
		cands = cands[:cfg.MaxVars]
	}

	// An aborted adjacent-level swap would corrupt the table, so the pass
	// does not poll the context; the caller polls around it.
	ctx := m.ctx
	m.ctx = nil
	defer func() { m.ctx = ctx }()
	m.GC()
	total := m.uniqueSize()
	swapBudget := cfg.MaxSwaps
	if swapBudget <= 0 {
		swapBudget = 1 << 30
	}
	for i, c := range cands {
		if float64(c.count) < cfg.MinShare*float64(total) {
			break // cands are sorted; the rest are even smaller
		}
		swapBudget -= m.siftVar(c.v, cfg.MaxGrowth, cfg.Stride, swapBudget)
		if swapBudget <= 0 {
			break
		}
		// Early abort when sifting is clearly not paying for itself.
		if i >= 3 {
			if float64(m.uniqueSize()) > (1-cfg.MinGain)*float64(total) {
				break
			}
		}
	}
	m.Stats.Reorders++
	m.obsReorders.Inc()
	m.obsReorderNanos.Add(int64(time.Since(start)))
}

// siftVar moves v through the order and parks it at the best position,
// returning the number of adjacent swaps performed (bounded by maxSwaps
// before parking). Every swap leaves the nodes it rewrote behind as garbage,
// so the live size is measured by collecting every few moves; sifting
// therefore requires all externally held BDDs to be protected, exactly like
// GC.
func (m *Manager) siftVar(v Var, maxGrowth float64, stride, maxSwaps int) int {
	start := m.var2level[v]
	levels := Var(len(m.level2var))
	bestSize := m.uniqueSize()
	limit := int(float64(bestSize) * maxGrowth)
	bestPos := start
	swaps := 0

	// Sift toward the closer end first, then sweep to the other end.
	dirDownFirst := levels-1-start <= start

	sinceGC := 0
	measure := func(force bool) (int, bool) {
		sinceGC++
		if !force && sinceGC < stride {
			return 0, false
		}
		sinceGC = 0
		m.GC()
		return m.uniqueSize(), true
	}

	move := func(toLower, atEnd bool) bool {
		if swaps >= maxSwaps {
			return false
		}
		l := m.var2level[v]
		if toLower {
			if int(l)+1 >= int(levels) {
				return false
			}
			m.swapLevels(l)
		} else {
			if l == 0 {
				return false
			}
			m.swapLevels(l - 1)
		}
		swaps++
		size, measured := measure(atEnd)
		if !measured {
			return true
		}
		if size < bestSize {
			bestSize = size
			bestPos = m.var2level[v]
		}
		return size <= limit
	}

	sweep := func(toLower bool) {
		for {
			l := m.var2level[v]
			atEnd := (toLower && int(l)+2 >= int(levels)) || (!toLower && l == 1)
			if !move(toLower, atEnd) {
				return
			}
		}
	}
	if dirDownFirst {
		sweep(true)
		sweep(false)
	} else {
		sweep(false)
		sweep(true)
	}
	// Park at the best position seen.
	for m.var2level[v] < bestPos {
		m.swapLevels(m.var2level[v])
		swaps++
	}
	for m.var2level[v] > bestPos {
		m.swapLevels(m.var2level[v] - 1)
		swaps++
	}
	m.GC()
	return swaps
}

// uniqueSize counts the nodes in the unique table (live nodes minus the
// two terminals).
func (m *Manager) uniqueSize() int { return m.NumNodes() - 2 }
