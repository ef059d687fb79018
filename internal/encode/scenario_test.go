package encode_test

import (
	"context"
	"errors"
	"sort"
	"strings"
	"testing"

	"syrep/internal/bdd"
	"syrep/internal/encode"
	"syrep/internal/network"
	"syrep/internal/papernet"
	"syrep/internal/routing"
	"syrep/internal/verify"
)

var ctx = context.Background()

// punchSuspicious removes the six suspicious Figure 1b entries (paper
// Section III-B) as holes with priority-list length k+1.
func punchSuspicious(t *testing.T, n *network.Network, r *routing.Routing, k int) {
	t.Helper()
	rep, err := verify.Check(ctx, r, k, verify.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Resilient {
		t.Fatal("fixture unexpectedly resilient")
	}
	for _, key := range rep.Suspicious() {
		if err := r.PunchHole(key.In, key.At, k+1); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRepairRunningExample reproduces the paper's running example repair:
// removing the six suspicious entries of Figure 1b and filling them with the
// BDD engine yields a perfectly 2-resilient routing.
func TestRepairRunningExample(t *testing.T) {
	n := papernet.Figure1()
	r := papernet.Figure1bRouting(n)
	punchSuspicious(t, n, r, 2)
	if r.NumHoles() != 6 {
		t.Fatalf("holes = %d, want 6", r.NumHoles())
	}

	sol, err := encode.Solve(ctx, r, 2, encode.Options{})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if sol.Routing.NumHoles() != 0 {
		t.Errorf("solution still has %d holes", sol.Routing.NumHoles())
	}
	if !sol.Routing.Complete() {
		t.Error("solution routing incomplete")
	}
	ok, err := verify.Check(ctx, sol.Routing, 2, verify.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !ok.Resilient {
		t.Fatalf("repaired routing is not 2-resilient:\n%s\nfailures: %v",
			sol.Routing, ok.Failing)
	}
	if sol.SymbolicScenarios == 0 {
		t.Error("expected at least one symbolic scenario")
	}

	// The eager entry point encodes every scenario, so its statistics are
	// exact; the lazy filling must be the eager one.
	eager, err := encode.SolveEager(ctx, r, 2, encode.Options{})
	if err != nil {
		t.Fatalf("SolveEager: %v", err)
	}
	if eager.NumSolutions < 1 {
		t.Errorf("NumSolutions = %v, want >= 1", eager.NumSolutions)
	}
	if eager.Scenarios != 29 { // C(7,0)+C(7,1)+C(7,2)
		t.Errorf("Scenarios = %d, want 29", eager.Scenarios)
	}
	if !sol.Routing.Equal(eager.Routing) {
		t.Errorf("lazy filling differs from eager:\nlazy:\n%s\neager:\n%s", sol.Routing, eager.Routing)
	}
}

// TestFullSynthesisFig1 punches every entry (the SyPer-style baseline) and
// synthesises a perfectly 2-resilient routing from scratch.
func TestFullSynthesisFig1(t *testing.T) {
	n := papernet.Figure1()
	d := papernet.Figure1Dest(n)
	r := routing.New(n, d)
	for _, key := range r.AllKeys() {
		if err := r.PunchHole(key.In, key.At, 3); err != nil {
			t.Fatal(err)
		}
	}
	sol, err := encode.Solve(ctx, r, 2, encode.Options{})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	rep, err := verify.Check(ctx, sol.Routing, 2, verify.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Resilient {
		t.Fatalf("synthesised routing is not 2-resilient:\n%s\nfailures: %v",
			sol.Routing, rep.Failing)
	}
}

// TestFigure2AllSolutions reproduces the paper's Figure 2: the two-node
// network with three parallel links has exactly the six permutations of
// (e0, e1, e2) as perfectly 2-resilient priority lists for R(lb_v1, v1).
func TestFigure2AllSolutions(t *testing.T) {
	n := papernet.Figure2()
	d := n.NodeByName("d")
	v1 := n.NodeByName("v1")
	r := routing.New(n, d)
	if err := r.PunchHole(n.Loopback(v1), v1, 3); err != nil {
		t.Fatal(err)
	}

	sol, err := encode.SolveEager(ctx, r, 2, encode.Options{})
	if err != nil {
		t.Fatalf("SolveEager: %v", err)
	}
	if sol.NumSolutions != 6 {
		t.Errorf("NumSolutions = %v, want 6 (all permutations)", sol.NumSolutions)
	}

	fillings, err := encode.Enumerate(ctx, r, 2, encode.Options{}, 0)
	if err != nil {
		t.Fatalf("Enumerate: %v", err)
	}
	if len(fillings) != 6 {
		t.Fatalf("Enumerate returned %d fillings, want 6", len(fillings))
	}
	seen := make(map[string]bool)
	key := routing.Key{In: n.Loopback(v1), At: v1}
	for _, f := range fillings {
		prio := f[key]
		if len(prio) != 3 {
			t.Fatalf("filling list %v has wrong length", prio)
		}
		var names []string
		dup := make(map[network.EdgeID]bool)
		for _, e := range prio {
			if dup[e] {
				t.Errorf("filling %v repeats an edge", prio)
			}
			dup[e] = true
			names = append(names, n.EdgeName(e))
		}
		seen[strings.Join(names, ",")] = true
	}
	if len(seen) != 6 {
		t.Errorf("distinct fillings = %d, want 6: %v", len(seen), keys(seen))
	}
}

func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestEnumerateCap checks the max argument.
func TestEnumerateCap(t *testing.T) {
	n := papernet.Figure2()
	d := n.NodeByName("d")
	v1 := n.NodeByName("v1")
	r := routing.New(n, d)
	if err := r.PunchHole(n.Loopback(v1), v1, 3); err != nil {
		t.Fatal(err)
	}
	fillings, err := encode.Enumerate(ctx, r, 2, encode.Options{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(fillings) != 2 {
		t.Errorf("Enumerate(max=2) returned %d", len(fillings))
	}
}

// TestUnrepairable: if the entry that must route around the failure is not a
// hole (and is broken), Solve reports ErrUnrepairable.
func TestUnrepairable(t *testing.T) {
	n := papernet.Figure1()
	r := papernet.Figure1bRouting(n)
	// Punch only one of the six suspicious entries: the loop from v3 under
	// {e1, e2} traverses concrete entries that cannot change, so synthesis
	// must fail.
	v1 := n.NodeByName("v1")
	if err := r.PunchHole(n.Loopback(v1), v1, 3); err != nil {
		t.Fatal(err)
	}
	_, err := encode.Solve(ctx, r, 2, encode.Options{})
	if !errors.Is(err, encode.ErrUnrepairable) {
		t.Errorf("err = %v, want ErrUnrepairable", err)
	}
}

// TestNoHolesResilient: a routing with no holes that is already k-resilient
// solves trivially to itself.
func TestNoHolesResilient(t *testing.T) {
	n := papernet.Figure1()
	r := papernet.Figure1bRouting(n)
	sol, err := encode.Solve(ctx, r, 1, encode.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Routing.Equal(r) {
		t.Error("solution differs from hole-free input")
	}
	if sol.NumSolutions != 1 {
		t.Errorf("NumSolutions = %v, want 1", sol.NumSolutions)
	}
}

// TestNoHolesNotResilient: a hole-free non-resilient routing cannot be
// fixed.
func TestNoHolesNotResilient(t *testing.T) {
	n := papernet.Figure1()
	r := papernet.Figure1bRouting(n)
	_, err := encode.Solve(ctx, r, 2, encode.Options{})
	if !errors.Is(err, encode.ErrUnrepairable) {
		t.Errorf("err = %v, want ErrUnrepairable", err)
	}
}

func TestNegativeK(t *testing.T) {
	n := papernet.Figure1()
	r := papernet.Figure1bRouting(n)
	if _, err := encode.Solve(ctx, r, -1, encode.Options{}); err == nil {
		t.Error("Solve(-1) succeeded")
	}
	if _, err := encode.Enumerate(ctx, r, -1, encode.Options{}, 0); err == nil {
		t.Error("Enumerate(-1) succeeded")
	}
}

func TestContextCancellation(t *testing.T) {
	n := papernet.Figure1()
	r := papernet.Figure1bRouting(n)
	punchSuspicious(t, n, r, 2)
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := encode.Solve(cctx, r, 2, encode.Options{}); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

func TestNodeLimit(t *testing.T) {
	n := papernet.Figure1()
	d := papernet.Figure1Dest(n)
	r := routing.New(n, d)
	for _, key := range r.AllKeys() {
		if err := r.PunchHole(key.In, key.At, 3); err != nil {
			t.Fatal(err)
		}
	}
	_, err := encode.Solve(ctx, r, 2, encode.Options{NodeLimit: 256})
	if !errors.Is(err, bdd.ErrNodeLimit) {
		t.Errorf("err = %v, want bdd.ErrNodeLimit", err)
	}
}

// TestHoleRepairK1: repairing for k=1 also works (shorter lists).
func TestHoleRepairK1(t *testing.T) {
	n := papernet.Figure1()
	d := papernet.Figure1Dest(n)
	r := routing.New(n, d)
	for _, key := range r.AllKeys() {
		if err := r.PunchHole(key.In, key.At, 2); err != nil {
			t.Fatal(err)
		}
	}
	sol, err := encode.Solve(ctx, r, 1, encode.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := verify.Check(ctx, sol.Routing, 1, verify.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Resilient {
		t.Errorf("k=1 synthesis not 1-resilient: %v", rep.Failing)
	}
}

// TestListLengthClampedToDegree: holes at degree-2 nodes with requested list
// length 3 get clamped lists but still solve.
func TestListLengthClampedToDegree(t *testing.T) {
	n := papernet.Figure1()
	r := papernet.Figure1bRouting(n)
	v1 := n.NodeByName("v1") // degree 2
	if err := r.PunchHole(n.Loopback(v1), v1, 5); err != nil {
		t.Fatal(err)
	}
	sol, err := encode.Solve(ctx, r, 1, encode.Options{})
	if err != nil {
		t.Fatal(err)
	}
	prio, ok := sol.Routing.Get(n.Loopback(v1), v1)
	if !ok {
		t.Fatal("hole not filled")
	}
	if len(prio) > 2 {
		t.Errorf("list length %d not clamped to degree 2", len(prio))
	}
}

// TestSlot0ExcludesInEdge: the synthesised first priority never equals the
// (real) in-edge when alternatives exist — the paper's V_{v,e} constraint.
func TestSlot0ExcludesInEdge(t *testing.T) {
	n := papernet.Figure1()
	d := papernet.Figure1Dest(n)
	r := routing.New(n, d)
	for _, key := range r.AllKeys() {
		if err := r.PunchHole(key.In, key.At, 3); err != nil {
			t.Fatal(err)
		}
	}
	fillings, err := encode.Enumerate(ctx, r, 1, encode.Options{}, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(fillings) == 0 {
		t.Fatal("no fillings")
	}
	for _, f := range fillings {
		for key, prio := range f {
			if !n.IsLoopback(key.In) && len(prio) > 0 && prio[0] == key.In && n.Degree(key.At) > 1 {
				t.Fatalf("filling puts in-edge first at %v: %v", key, prio)
			}
		}
	}
}

// TestLeafBounceBackAllowed: on a path graph the middle node's entry for a
// packet arriving from the leaf side can only bounce back; the degenerate
// single-candidate exemption permits the leaf's own entry.
func TestLeafBounceBackAllowed(t *testing.T) {
	b := network.NewBuilder("path3")
	d := b.AddNode("d")
	a := b.AddNode("a")
	leaf := b.AddNode("leaf")
	e0 := b.AddEdge(d, a)
	e1 := b.AddEdge(a, leaf)
	n := b.MustBuild()

	r := routing.New(n, d)
	if err := r.PunchHole(n.Loopback(a), a, 1); err != nil {
		t.Fatal(err)
	}
	if err := r.PunchHole(e1, a, 1); err != nil {
		t.Fatal(err)
	}
	if err := r.PunchHole(n.Loopback(leaf), leaf, 1); err != nil {
		t.Fatal(err)
	}
	// The leaf's in-edge entry can only bounce back on e1.
	if err := r.PunchHole(e1, leaf, 1); err != nil {
		t.Fatal(err)
	}
	r.MustSet(e0, a, []network.EdgeID{e1, e0})

	sol, err := encode.Solve(ctx, r, 0, encode.Options{})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	rep, err := verify.Check(ctx, sol.Routing, 0, verify.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Resilient {
		t.Errorf("path routing not 0-resilient: %v", rep.Failing)
	}
	prio, _ := sol.Routing.Get(e1, leaf)
	if len(prio) != 1 || prio[0] != e1 {
		t.Errorf("leaf bounce-back = %v, want [e1]", prio)
	}
}
