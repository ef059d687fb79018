package bdd

import "time"

// Garbage collection: mark from protected roots, sweep everything else.
// Refs of live nodes are stable across GC; freed slots are recycled by mk.
// The operation cache is invalidated because it may reference freed nodes.
//
// GC must only run between top-level operations: intermediate results held
// on the Go stack during a recursion are not protected. The Manager never
// garbage-collects implicitly for that reason.

// GC frees every node unreachable from protected roots and returns the
// number of freed nodes.
func (m *Manager) GC() int {
	start := time.Now()
	m.Stats.GCs++
	m.obsGC.Inc()
	marked := m.marks[:0]
	if cap(marked) < len(m.nodes) {
		marked = make([]bool, len(m.nodes))
	} else {
		marked = marked[:len(m.nodes)]
		clear(marked)
	}
	marked[False] = true
	marked[True] = true
	// Mark with an explicit stack: a chain-shaped BDD is as deep as it has
	// levels, and recursion would overflow the goroutine stack long before
	// the node table fills.
	stack := m.markStack[:0]
	push := func(f Ref) {
		if !marked[f] {
			marked[f] = true
			stack = append(stack, f)
		}
	}
	for f := range m.protected {
		push(f)
	}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n := m.nodes[f]
		push(n.low)
		push(n.high)
	}
	m.marks, m.markStack = marked, stack

	// Sweep in index order: free the unmarked nodes and relink the marked
	// ones into emptied subtables. Freed slots join the free stack in
	// ascending order, so mk recycles them highest first, the same way in
	// every run.
	for i := range m.levels {
		st := &m.levels[i]
		clear(st.buckets)
		st.count = 0
	}
	freed := 0
	for i := 2; i < len(m.nodes); i++ {
		switch {
		case m.nodes[i].level == deadLevel:
		case marked[i]:
			m.link(Ref(i))
		default:
			m.nodes[i] = node{level: deadLevel, next: m.freeHead}
			m.freeHead = Ref(i)
			freed++
		}
	}
	m.freeCount += freed
	m.invalidateCache()
	m.Stats.NodesFreed += int64(freed)
	m.obsFreed.Add(int64(freed))
	m.obsGCNanos.Add(int64(time.Since(start)))
	return freed
}
