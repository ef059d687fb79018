package bdd_test

import (
	"sync"
	"testing"

	"syrep/internal/bdd"
	"syrep/internal/obs"
)

// opTrace runs a fixed scripted op sequence on a pristine manager and
// returns every Ref it produced, GC and reorder churn included. Two pristine
// managers must yield identical traces: Ref numbering is part of the
// determinism contract pooling relies on.
func opTrace(t *testing.T, m *bdd.Manager) []bdd.Ref {
	t.Helper()
	trace, err := opTraceQuiet(m)
	if err != nil {
		t.Fatal(err)
	}
	return trace
}

func sameTrace(t *testing.T, want, got []bdd.Ref, what string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: trace length %d, want %d", what, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: trace[%d] = %v, want %v", what, i, got[i], want[i])
		}
	}
}

// TestResetPristine: a Reset manager replays the exact Ref trace of a fresh
// one, even after arbitrary prior churn (ops, protections, GC, reorder).
func TestResetPristine(t *testing.T) {
	fresh := bdd.NewWithConfig(bdd.Config{NodeLimit: 1 << 16})
	want := opTrace(t, fresh)

	dirty := bdd.NewWithConfig(bdd.Config{NodeLimit: 1 << 16})
	buildAndChurn(t, dirty) // ops + GC + reorder, leaves protections behind
	dirty.Reset()
	if n := dirty.NumNodes(); n != 2 {
		t.Fatalf("after Reset: %d live nodes, want 2 terminals", n)
	}
	if dirty.NumVars() != 0 {
		t.Fatalf("after Reset: %d vars, want 0", dirty.NumVars())
	}
	if dirty.NumProtected() != 0 {
		t.Fatalf("after Reset: %d protected refs, want 0", dirty.NumProtected())
	}
	sameTrace(t, want, opTrace(t, dirty), "reset vs fresh")
}

// TestResetClearsOverflow: Reset forgets a node-limit overflow and a new
// limit takes effect, so a pooled manager recycled after a memout does not
// poison the next solve.
func TestResetClearsOverflow(t *testing.T) {
	m := bdd.NewWithConfig(bdd.Config{NodeLimit: 8})
	err := m.Protect(func() error {
		vars := m.NewVars("x", 8)
		f := bdd.True
		for _, v := range vars {
			f = m.And(f, m.VarRef(v))
		}
		return nil
	})
	if err != bdd.ErrNodeLimit {
		t.Fatalf("tiny limit: err = %v, want ErrNodeLimit", err)
	}
	if !m.Overflowed() {
		t.Fatal("manager should report the overflow")
	}
	m.Reset()
	if m.Overflowed() {
		t.Fatal("Reset must clear the overflow flag")
	}
	m.SetNodeLimit(1 << 16)
	fresh := bdd.NewWithConfig(bdd.Config{NodeLimit: 1 << 16})
	sameTrace(t, opTrace(t, fresh), opTrace(t, m), "reset-after-overflow vs fresh")
}

// TestPoolReuseDeterminism: a recycled pool manager replays the trace of a
// fresh one, and the pool actually recycles (Reuses advances).
func TestPoolReuseDeterminism(t *testing.T) {
	pool := bdd.NewManagerPool(bdd.Config{NodeLimit: 1 << 16})
	m1 := pool.Get()
	want := opTrace(t, m1)
	pool.Put(m1)

	m2 := pool.Get()
	sameTrace(t, want, opTrace(t, m2), "pooled vs first use")
	pool.Put(m2)

	st := pool.Stats()
	if st.Gets != 2 || st.Reuses != 1 || st.Idle != 1 {
		t.Fatalf("pool stats = %+v, want Gets=2 Reuses=1 Idle=1", st)
	}
}

// TestPoolConcurrentObserved hammers Get/op/Put from many goroutines with
// one shared obs counter bundle attached to every checked-out manager — the
// batch fan-out shape. Run under -race this is the pooled-manager data-race
// sweep for Observe and the obs taps; each goroutine also checks its traces
// stay deterministic while the pool shuffles managers between goroutines.
func TestPoolConcurrentObserved(t *testing.T) {
	pool := bdd.NewManagerPool(bdd.Config{NodeLimit: 1 << 16})
	o := obs.New(nil)
	fresh := bdd.NewWithConfig(bdd.Config{NodeLimit: 1 << 16})
	want := opTrace(t, fresh)

	const workers, rounds = 8, 6
	var wg sync.WaitGroup
	errs := make(chan string, workers*rounds) // at most one per trace: sends never block
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				m := pool.Get()
				m.Observe(o.BDD())
				got, err := opTraceQuiet(m)
				if err != nil {
					errs <- "opTrace failed: " + err.Error()
				} else {
					for i := range want {
						if want[i] != got[i] {
							errs <- "pooled trace diverged from fresh"
							break
						}
					}
				}
				pool.Put(m)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
	if snap := o.Snapshot(); len(snap.Counters) == 0 {
		t.Fatal("shared observer saw no BDD counter traffic")
	}
}

// opTraceQuiet is opTrace without the testing.T plumbing, for use inside
// goroutines (t.Fatal must not be called off the test goroutine).
func opTraceQuiet(m *bdd.Manager) ([]bdd.Ref, error) {
	vars := m.NewVars("p", 8)
	var trace []bdd.Ref
	var f bdd.Ref = bdd.True
	if err := m.Protect(func() error {
		for i, v := range vars {
			g := m.Or(m.VarRef(v), m.NVarRef(vars[(i+3)%len(vars)]))
			f = m.And(f, g)
			m.Ref(f)
			trace = append(trace, f, g)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	// GC recycles unprotected intermediates; the free-list order feeds the
	// next allocations, so the post-GC phase checks Reset restored that too.
	m.GC()
	if err := m.Protect(func() error {
		for i := range vars {
			h := m.And(m.VarRef(vars[i]), m.Not(f))
			trace = append(trace, h)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	// Sifting walks the unique subtables' chains and allocates in that
	// order, so the post-reorder phase checks that subtables recycled by
	// Reset (which keep their bucket arrays) chain like fresh ones.
	m.Reorder(bdd.ReorderConfig{})
	if err := m.Protect(func() error {
		for i := range vars {
			trace = append(trace, m.Or(m.VarRef(vars[i]), f))
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return trace, nil
}
