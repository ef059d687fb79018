package bdd

import (
	"context"
	"testing"
)

// pairSum builds ⋁ (x_i ∧ y_i) over the given pairs, with every x variable
// ordered before every y variable — the textbook order under which the
// function needs exponentially many nodes in the number of pairs.
func pairSum(m *Manager, xs, ys []Var, pairs []int) Ref {
	f := False
	for _, i := range pairs {
		f = m.Or(f, m.And(m.VarRef(xs[i]), m.VarRef(ys[i])))
	}
	return f
}

// TestCancelledContextAbortsApply: a Manager carrying a cancelled context
// aborts a large Apply within ctxPollEvery node allocations, Protect reports
// the context's error, and the table is still well-formed and usable.
func TestCancelledContextAbortsApply(t *testing.T) {
	const n = 16
	m := New()
	xs, ys := m.NewVars("x", n), m.NewVars("y", n)
	var even, odd []int
	for i := 0; i < n; i += 2 {
		even, odd = append(even, i), append(odd, i+1)
	}
	a := m.Ref(pairSum(m, xs, ys, even))
	b := m.Ref(pairSum(m, xs, ys, odd))
	m.GC()
	before := m.NumNodes()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m.SetContext(ctx)
	err := m.Protect(func() error {
		m.Or(a, b)
		return nil
	})
	if err != context.Canceled {
		t.Fatalf("Protect = %v, want context.Canceled", err)
	}
	if grown := m.NumNodes() - before; grown > ctxPollEvery {
		t.Fatalf("aborted Apply allocated %d nodes, want at most %d", grown, ctxPollEvery)
	}
	checkStructure(t, m)

	// Without the context the same Apply completes, and it is far larger
	// than the poll interval — so the abort above really cut it short.
	m.SetContext(nil)
	before = m.NumNodes()
	var full Ref
	if err := m.Protect(func() error {
		full = m.Ref(m.Or(a, b))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if grown := m.NumNodes() - before; grown <= 4*ctxPollEvery {
		t.Fatalf("uncancelled Apply allocated only %d nodes; the fixture is too small", grown)
	}
	if want := pairSum(m, xs, ys, append(even, odd...)); full != want {
		t.Fatalf("Or after an aborted attempt = %d, want %d", full, want)
	}
	m.GC()
	checkStructure(t, m)
}
