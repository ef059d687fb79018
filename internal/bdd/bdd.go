// Package bdd implements reduced ordered binary decision diagrams (ROBDDs)
// in pure Go, following Bryant's classic algorithms. It is the symbolic
// engine behind SyRep's routing synthesis and repair (Section III-A of the
// paper), playing the role CUDD plays for the authors' prototype.
//
// A Manager owns a hash-consed node store with a fixed variable order (the
// order in which variables are created). All operations return canonical
// nodes: two Refs are equal iff they denote the same Boolean function.
//
// Memory management: callers protect BDDs they want to survive garbage
// collection with Ref/Deref; GC sweeps everything unreachable from protected
// nodes. Operations that would grow the store past the configured node limit
// abort; wrap top-level symbolic computations in Protect to receive that
// condition as an error instead of a panic.
package bdd

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"

	"syrep/internal/obs"
)

// Ref references a BDD node inside its Manager. The constants False and True
// are the terminal nodes. Refs are only meaningful with the Manager that
// produced them.
type Ref int32

// Terminal nodes.
const (
	False Ref = 0
	True  Ref = 1
)

// Var identifies a BDD variable (also its level in the fixed order).
type Var int32

const terminalLevel = Var(math.MaxInt32)

// ErrNodeLimit is reported by Protect when a symbolic computation exceeds
// the Manager's node limit even after garbage collection.
var ErrNodeLimit = errors.New("bdd: node limit exceeded")

// node is one slot of the node store. next chains a live node into its
// level's unique subtable and a freed slot into the free list.
type node struct {
	level     Var
	low, high Ref
	next      Ref
}

// deadLevel marks a freed node slot.
const deadLevel = Var(-1)

// ctxPollEvery is how many node allocations mk makes between polls of the
// Manager's context (see SetContext).
const ctxPollEvery = 4096

// Manager owns BDD nodes and caches.
type Manager struct {
	nodes []node
	// levels holds the unique subtable of every level (see unique.go).
	levels []subtable
	// freeHead is the top of the free-slot stack, linked through
	// node.next (0 = empty); freeCount its length.
	freeHead  Ref
	freeCount int
	varNames  []string

	// cache is the lossy computed cache (see cache.go): cacheShift maps a
	// hash to a slot, cacheGen stamps valid entries, and cacheFilled counts
	// the slots stored into during the current generation.
	cache       []cacheEntry
	cacheShift  uint8
	cacheGen    uint32
	cacheFilled int64

	protected map[Ref]int

	nodeLimit  int // hard cap on live nodes (0 = unlimited)
	overflowed bool

	// ctx, when set, is polled every ctxPollEvery node allocations so that
	// one long operation cannot outlive its deadline (see SetContext).
	ctx    context.Context
	allocs int

	// var2level / level2var implement dynamic variable reordering (see
	// reorder.go); empty slices mean the identity permutation.
	var2level []Var
	level2var []Var

	// Scratch buffers reused across GC, grow and swapLevels calls.
	marks                          []bool
	markStack                      []Ref
	growScratch                    []Ref
	swapUpper, swapLower, rewrites []Ref

	// Stats counts operations for benchmarking and tuning.
	Stats Stats

	// Observability taps (see Observe). Each is nil when no observer is
	// attached, and obs.Counter/Gauge methods are no-ops on nil receivers,
	// so the unobserved hot path costs one predictable nil check per op.
	obsMk, obsAlloc, obsCacheHit, obsCacheMiss *obs.Counter
	obsGC, obsFreed, obsReorders               *obs.Counter
	obsGCNanos, obsReorderNanos                *obs.Counter
	obsPeak, obsCacheOccupancy                 *obs.Gauge
}

// Observe attaches the obs counter bundle c to the Manager so hot-path
// events (mk calls, node allocations, apply-cache hits/misses, GC runs and
// time, freed nodes, reorder passes and time, peak live nodes, cache
// occupancy) stream into it atomically.
// Passing nil detaches. The per-Manager Stats field keeps counting either
// way; Observe adds a cross-Manager, goroutine-safe aggregation channel for
// the observability layer.
func (m *Manager) Observe(c *obs.BDDCounters) {
	if c == nil {
		m.obsMk, m.obsAlloc, m.obsCacheHit, m.obsCacheMiss = nil, nil, nil, nil
		m.obsGC, m.obsFreed, m.obsReorders = nil, nil, nil
		m.obsGCNanos, m.obsReorderNanos = nil, nil
		m.obsPeak, m.obsCacheOccupancy = nil, nil
		return
	}
	m.obsMk, m.obsAlloc = c.MkCalls, c.NodesAllocated
	m.obsCacheHit, m.obsCacheMiss = c.CacheHits, c.CacheMisses
	m.obsGC, m.obsFreed, m.obsReorders = c.GCRuns, c.NodesFreed, c.Reorders
	m.obsGCNanos, m.obsReorderNanos = c.GCNanos, c.ReorderNanos
	m.obsPeak, m.obsCacheOccupancy = c.PeakNodes, c.CacheOccupancy
}

// Stats aggregates operation counters.
type Stats struct {
	MkCalls    int64
	CacheHits  int64
	CacheMiss  int64
	GCs        int64
	NodesFreed int64
	Reorders   int64
}

// Config tunes a Manager.
type Config struct {
	// NodeLimit caps live BDD nodes; 0 means unlimited. When the limit is
	// hit, the Manager garbage-collects; if still over, the current
	// operation aborts (see Protect).
	NodeLimit int
	// InitialCapacity pre-sizes the node store.
	InitialCapacity int
}

// New returns a Manager with default configuration.
func New() *Manager { return NewWithConfig(Config{}) }

// NewWithConfig returns a Manager tuned by cfg.
func NewWithConfig(cfg Config) *Manager {
	capacity := cfg.InitialCapacity
	if capacity < 1024 {
		capacity = 1024
	}
	m := &Manager{
		nodes:     make([]node, 2, capacity),
		protected: make(map[Ref]int),
		nodeLimit: cfg.NodeLimit,
	}
	m.nodes[False] = node{level: terminalLevel, low: False, high: False}
	m.nodes[True] = node{level: terminalLevel, low: True, high: True}
	m.resizeCache(minCacheSize)
	return m
}

// NewVar declares the next variable in the order and returns it.
func (m *Manager) NewVar(name string) Var {
	v := Var(len(m.varNames))
	if name == "" {
		name = fmt.Sprintf("x%d", v)
	}
	m.varNames = append(m.varNames, name)
	// A recycled subtable (Reset keeps them) restarts empty but keeps its
	// bucket array's capacity.
	if len(m.levels) < cap(m.levels) {
		m.levels = m.levels[:len(m.levels)+1]
		st := &m.levels[len(m.levels)-1]
		st.buckets, st.count = st.buckets[:0], 0
	} else {
		m.levels = append(m.levels, subtable{})
	}
	return v
}

// NewVars declares n consecutive variables with a common prefix.
func (m *Manager) NewVars(prefix string, n int) []Var {
	out := make([]Var, n)
	for i := range out {
		out[i] = m.NewVar(fmt.Sprintf("%s%d", prefix, i))
	}
	return out
}

// NumVars returns the number of declared variables.
func (m *Manager) NumVars() int { return len(m.varNames) }

// VarName returns the display name of v.
func (m *Manager) VarName(v Var) string {
	if int(v) < len(m.varNames) {
		return m.varNames[v]
	}
	return fmt.Sprintf("x%d", v)
}

// levelName returns the display name of the variable at a level.
func (m *Manager) levelName(l Var) string { return m.VarName(m.levelToVar(l)) }

// NumNodes returns the number of live nodes, terminals included.
func (m *Manager) NumNodes() int { return len(m.nodes) - m.freeCount }

// Level returns the variable of the node (terminalLevel for constants).
func (m *Manager) level(f Ref) Var { return m.nodes[f].level }

// IsTerminal reports whether f is True or False.
func IsTerminal(f Ref) bool { return f == True || f == False }

// VarOf returns the top variable of f; calling it on a terminal is a
// programming error.
func (m *Manager) VarOf(f Ref) Var {
	if IsTerminal(f) {
		panic("bdd: VarOf on terminal")
	}
	return m.levelToVar(m.nodes[f].level)
}

// Low returns the low (else) child of f.
func (m *Manager) Low(f Ref) Ref { return m.nodes[f].low }

// High returns the high (then) child of f.
func (m *Manager) High(f Ref) Ref { return m.nodes[f].high }

// VarRef returns the BDD for the single variable v.
func (m *Manager) VarRef(v Var) Ref { return m.mk(m.varToLevel(v), False, True) }

// NVarRef returns the BDD for the negation of variable v.
func (m *Manager) NVarRef(v Var) Ref { return m.mk(m.varToLevel(v), True, False) }

// Lit returns the literal v or ¬v depending on positive.
func (m *Manager) Lit(v Var, positive bool) Ref {
	if positive {
		return m.VarRef(v)
	}
	return m.NVarRef(v)
}

// mk returns the canonical node (level, low, high), applying the reduction
// rules (low == high elimination, hash-consing).
func (m *Manager) mk(level Var, low, high Ref) Ref {
	m.Stats.MkCalls++
	m.obsMk.Inc()
	if low == high {
		return low
	}
	st := &m.levels[level]
	if r := m.lookup(st, low, high); r != 0 {
		return r
	}
	if m.nodeLimit > 0 && m.NumNodes() >= m.nodeLimit {
		m.overflowed = true
		panic(bddOverflow{})
	}
	if m.allocs++; m.allocs%ctxPollEvery == 0 && m.ctx != nil {
		if err := m.ctx.Err(); err != nil {
			panic(bddCancel{err})
		}
	}
	r := m.freeHead
	if r != 0 {
		m.freeHead = m.nodes[r].next
		m.freeCount--
		m.nodes[r] = node{level: level, low: low, high: high}
	} else {
		if len(m.nodes) == cap(m.nodes) {
			// Double the arena (append's gentler growth for large slices
			// copies a multi-megabyte arena several times as often), but
			// never past the node limit: with the free list empty every
			// slot is live, so the arena cannot outgrow it.
			more := len(m.nodes)
			if m.nodeLimit > 0 {
				more = min(more, m.nodeLimit-len(m.nodes))
			}
			m.nodes = slices.Grow(m.nodes, more)
		}
		r = Ref(len(m.nodes))
		m.nodes = append(m.nodes, node{level: level, low: low, high: high})
	}
	m.link(r)
	m.growCache()
	m.obsAlloc.Inc()
	m.obsPeak.SetMax(int64(m.NumNodes()))
	return r
}

// bddOverflow is the panic payload for node-limit aborts; Protect converts
// it to ErrNodeLimit.
type bddOverflow struct{}

// bddCancel is the panic payload for a context that expired during an
// operation; Protect converts it to the context's error.
type bddCancel struct{ err error }

// SetContext makes the Manager poll ctx every few thousand node allocations
// and abort the running operation once ctx is done, so a single large
// operation cannot overrun a deadline. The abort unwinds like a node-limit
// overflow: Protect returns ctx.Err(), and the Manager stays consistent (no
// node is half-built). Reorder does not poll, because an aborted adjacent-
// level swap would leave the table corrupted. A nil ctx (the default, and
// the state after Reset) disables polling.
func (m *Manager) SetContext(ctx context.Context) { m.ctx = ctx }

// Protect runs fn, converting a node-limit abort into ErrNodeLimit and a
// context abort (see SetContext) into the context's error. All top-level
// symbolic computations that may blow up should run under Protect.
func (m *Manager) Protect(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			switch p := r.(type) {
			case bddOverflow:
				err = ErrNodeLimit
			case bddCancel:
				err = p.err
			default:
				panic(r)
			}
		}
	}()
	return fn()
}

// Overflowed reports whether the Manager has ever hit its node limit.
func (m *Manager) Overflowed() bool { return m.overflowed }

// IsOverflow reports whether a recovered panic value is the engine's
// internal node-limit abort. Supervisors that recover panics at a package
// boundary use it to map an overflow that escaped a Protect region back to
// ErrNodeLimit instead of treating it as a bug.
func IsOverflow(v any) bool {
	_, ok := v.(bddOverflow)
	return ok
}

// NumProtected returns the number of distinct refs currently protected from
// garbage collection. The encode engine's steady state keeps at most two
// protected refs between scenarios; fault-injection tests assert the count
// returns to that level on every exit path.
func (m *Manager) NumProtected() int { return len(m.protected) }

// Ref protects f (and its descendants) from garbage collection. Calls nest.
func (m *Manager) Ref(f Ref) Ref {
	m.protected[f]++
	return f
}

// Deref removes one protection from f.
func (m *Manager) Deref(f Ref) {
	if c := m.protected[f]; c > 1 {
		m.protected[f] = c - 1
	} else {
		delete(m.protected, f)
	}
}
