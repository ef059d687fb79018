package bdd

import "sync"

// Manager pooling. A batch run solves one BDD encoding per destination, and
// every solve used to pay for a fresh Manager: multi-megabyte node arenas and
// hash maps allocated, grown, and thrown away N times per topology. The
// encodings themselves cannot be shared — each destination declares its own
// hole variables — but the *arenas* can: Reset returns a Manager to the
// pristine state of a fresh NewWithConfig while keeping the node slice's
// capacity and recycling the Manager allocation, so a pooled solve starts
// with a warm arena instead of a cold heap.
//
// Determinism is the contract that makes pooling safe: a Reset Manager must
// behave byte-for-byte like a fresh one (same Refs, same tables, same
// overflow points), because the determinism suite pins synthesized tables
// across runs and the cache replays them across processes. Reset therefore
// restores every piece of semantic state — nodes, unique table, operation
// cache, protections, free list, variable order — and only the allocation
// capacity survives. Capacity cannot leak into results: the lossy cache never
// changes a Ref (see cache.go), and a subtable's chains depend only on its
// size history, which a Reset subtable replays from scratch (see
// Manager.grow). The cumulative Stats counters also survive: they are
// bookkeeping, not semantics.

// Reset restores the Manager to the state of a fresh NewWithConfig with the
// same NodeLimit, keeping allocated capacity where possible. Observability
// taps are detached (re-attach with Observe); Stats keeps accumulating
// across uses.
func (m *Manager) Reset() {
	m.nodes = m.nodes[:2]
	m.nodes[False] = node{level: terminalLevel, low: False, high: False}
	m.nodes[True] = node{level: terminalLevel, low: True, high: True}
	// Subtables and the cache are cleared in place: NewVar hands out the
	// old subtables empty but with their bucket arrays' capacity, and a new
	// cache generation invalidates every entry in O(1).
	m.levels = m.levels[:0]
	m.invalidateCache()
	clear(m.protected)
	m.freeHead, m.freeCount = 0, 0
	m.varNames = m.varNames[:0]
	m.var2level = m.var2level[:0]
	m.level2var = m.level2var[:0]
	m.overflowed = false
	m.ctx = nil
	m.Observe(nil)
}

// SetNodeLimit adjusts the live-node cap (0 = unlimited). Batch runs reuse
// pooled Managers across solves whose escalation ladders want different
// limits, so the cap must be settable after construction.
func (m *Manager) SetNodeLimit(n int) { m.nodeLimit = n }

// ManagerPool recycles Managers across solves. Get returns a pristine
// Manager — freshly built or Reset — and Put resets and shelves one for
// reuse. Safe for concurrent use; the pool imposes no bound, so it holds at
// most as many Managers as were ever simultaneously checked out (one per
// batch worker in the intended use).
type ManagerPool struct {
	cfg Config

	mu     sync.Mutex
	free   []*Manager
	gets   int64
	reuses int64
}

// NewManagerPool returns a pool producing Managers configured by cfg. The
// cfg.NodeLimit is only the default: callers may re-tune a checked-out
// Manager with SetNodeLimit.
func NewManagerPool(cfg Config) *ManagerPool {
	return &ManagerPool{cfg: cfg}
}

// Get checks a pristine Manager out of the pool, building one when none is
// shelved. The caller owns it exclusively until Put.
func (p *ManagerPool) Get() *Manager {
	p.mu.Lock()
	p.gets++
	if n := len(p.free); n > 0 {
		m := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		p.reuses++
		p.mu.Unlock()
		m.SetNodeLimit(p.cfg.NodeLimit)
		return m
	}
	p.mu.Unlock()
	return NewWithConfig(p.cfg)
}

// Put resets m and shelves it for reuse. m must not be used afterwards.
func (p *ManagerPool) Put(m *Manager) {
	if m == nil {
		return
	}
	m.Reset()
	p.mu.Lock()
	p.free = append(p.free, m)
	p.mu.Unlock()
}

// PoolStats reports the pool's reuse effectiveness.
type PoolStats struct {
	// Gets counts checkouts; Reuses counts those served by a recycled
	// Manager rather than a fresh allocation.
	Gets, Reuses int64
	// Idle is the number of Managers currently shelved.
	Idle int
}

// Stats returns a point-in-time summary.
func (p *ManagerPool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return PoolStats{Gets: p.gets, Reuses: p.reuses, Idle: len(p.free)}
}
