package trace_test

import (
	"math/rand"
	"testing"

	"syrep/internal/network"
	"syrep/internal/routing"
	"syrep/internal/trace"
	"syrep/internal/verify/vgen"
)

// withHoles punches a share of r's entries as holes, keyed by seed.
func withHoles(r *routing.Routing, seed int64, share float64) *routing.Routing {
	out := r.Clone()
	rng := rand.New(rand.NewSource(seed))
	for _, key := range out.Keys() {
		if rng.Float64() < share {
			_ = out.PunchHole(key.In, key.At, 2)
		}
	}
	return out
}

// checkDelivers asserts Delivers ≡ Run(...).Outcome == Delivered for every
// source (the destination and disconnected sources included) under F, and
// tallies the outcomes seen.
func checkDelivers(t *testing.T, r *routing.Routing, F network.EdgeSet, seen map[trace.Outcome]int, what string) {
	t.Helper()
	for _, src := range r.Network().Nodes() {
		res := trace.Run(r, F, src)
		seen[res.Outcome]++
		if got, want := trace.Delivers(r, F, src), res.Outcome == trace.Delivered; got != want {
			t.Fatalf("%s: F=%v source %d: Delivers = %v, Run outcome %v", what, F, src, got, res.Outcome)
		}
	}
}

// TestDeliversMatchesRun is the differential for the allocation-free
// delivery check: on corrupted multigraphs with truncated lists (drops),
// bounced entries (loops) and punched holes, under every scenario with
// |F| <= 2, Delivers must agree with the full trace.
func TestDeliversMatchesRun(t *testing.T) {
	seen := make(map[trace.Outcome]int)
	for seed := int64(1); seed <= 6; seed++ {
		for _, cfg := range []vgen.Config{
			{Nodes: 8, Seed: seed, TruncateShare: 0.3},
			{Nodes: 10, Seed: seed, BounceShare: 0.2},
			{Nodes: 12, Seed: seed, TruncateShare: 0.2, ParallelEdgeShare: 0.3, BounceShare: 0.1},
		} {
			r := withHoles(vgen.Must(cfg), seed, 0.05)
			r.Network().ForEachScenario(2, func(F network.EdgeSet) bool {
				checkDelivers(t, r, F, seen, cfg.String())
				return true
			})
		}
	}
	for _, o := range []trace.Outcome{trace.Delivered, trace.Dropped, trace.Looped, trace.HitHole} {
		if seen[o] == 0 {
			t.Errorf("corpus never produced outcome %v: %v", o, seen)
		}
	}
}

// FuzzDelivers drives the Delivers ≡ Run differential on fuzzer-chosen
// corrupted multigraphs, hole shares and failure sets (a bit mask over the
// real edges, so scenarios of any size occur).
func FuzzDelivers(f *testing.F) {
	f.Add(uint8(8), int64(1), uint8(30), uint8(0), uint8(0), uint8(5), uint64(0b101))
	f.Add(uint8(10), int64(7), uint8(0), uint8(30), uint8(20), uint8(0), uint64(0xff))
	f.Add(uint8(12), int64(42), uint8(20), uint8(10), uint8(10), uint8(10), uint64(1<<40|1<<3))
	f.Fuzz(func(t *testing.T, nodes uint8, seed int64, truncPct, parPct, bouncePct, holePct uint8, mask uint64) {
		cfg := vgen.Config{
			Nodes:             int(nodes%13) + 4,
			Seed:              seed,
			TruncateShare:     float64(truncPct%101) / 100,
			ParallelEdgeShare: float64(parPct%101) / 100,
			BounceShare:       float64(bouncePct%101) / 100,
		}
		base, err := vgen.Corrupted(cfg)
		if err != nil {
			t.Skip()
		}
		r := withHoles(base, seed, float64(holePct%101)/100)
		net := r.Network()
		F := network.NewEdgeSet(net.NumRealEdges())
		for _, e := range net.RealEdges() {
			if e < 64 && mask&(1<<uint(e)) != 0 {
				F.Add(e)
			}
		}
		checkDelivers(t, r, F, make(map[trace.Outcome]int), cfg.String())
	})
}

// TestDeliversAllocs locks the fast path at zero allocations for delivered,
// looped and dropped traces alike.
func TestDeliversAllocs(t *testing.T) {
	n, r := fixture(t)
	v1, v3 := n.NodeByName("v1"), n.NodeByName("v3")
	cases := []struct {
		F    network.EdgeSet
		src  network.NodeID
		want bool
	}{
		{network.EdgeSetOf(n.NumRealEdges(), 1, 6), v3, true},  // the paper's delivered trace
		{network.EdgeSetOf(n.NumRealEdges(), 1, 2), v3, false}, // Figure 1c loop
		{network.EdgeSetOf(n.NumRealEdges(), 3, 4), v1, false}, // all of v1's edges fail
	}
	for _, c := range cases {
		if got := trace.Delivers(r, c.F, c.src); got != c.want {
			t.Fatalf("Delivers(F=%v, %d) = %v, want %v", c.F, c.src, got, c.want)
		}
		if allocs := testing.AllocsPerRun(100, func() { trace.Delivers(r, c.F, c.src) }); allocs != 0 {
			t.Errorf("Delivers(F=%v, %d) allocates %v per run, want 0", c.F, c.src, allocs)
		}
	}
}
