package resilience_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"syrep/internal/network"
	"syrep/internal/papernet"
	"syrep/internal/reduce"
	"syrep/internal/repair"
	"syrep/internal/resilience"
	"syrep/internal/routing"
	"syrep/internal/verify"
)

// chainRing builds a small 2-edge-connected chain-rich topology.
func chainRing(t *testing.T, chainLen int) (*network.Network, network.NodeID) {
	t.Helper()
	b := network.NewBuilder("chainring")
	d := b.AddNode("d")
	na := b.AddNode("a")
	nb := b.AddNode("b")
	b.AddEdge(d, na)
	b.AddEdge(d, nb)
	b.AddEdge(na, nb)
	prev := na
	for i := 0; i < chainLen; i++ {
		cur := b.AddNode("c" + string(rune('a'+i)))
		b.AddEdge(prev, cur)
		prev = cur
	}
	b.AddEdge(prev, nb)
	return b.MustBuild(), d
}

// TestPipelineFlowAllStrategies: every strategy of Figure 7 produces a
// verified perfectly 2-resilient routing on the running example.
func TestPipelineFlowAllStrategies(t *testing.T) {
	n := papernet.Figure1()
	d := papernet.Figure1Dest(n)
	for _, s := range []resilience.Strategy{resilience.Baseline, resilience.HeuristicOnly, resilience.ReductionOnly, resilience.Combined} {
		t.Run(s.String(), func(t *testing.T) {
			r, rep, err := resilience.Synthesize(ctx, n, d, 2, resilience.Options{Strategy: s})
			if err != nil {
				t.Fatalf("Synthesize: %v", err)
			}
			if !verify.Resilient(r, 2) {
				t.Fatal("routing not 2-resilient")
			}
			if rep.Strategy != s || rep.K != 2 {
				t.Errorf("report mismatch: %+v", rep)
			}
			if rep.Elapsed <= 0 {
				t.Error("elapsed not recorded")
			}
		})
	}
}

// TestPipelineFlowChainTopology exercises the reduction path for real: the
// chain ring shrinks under the aggressive rule and the expansion gets
// repaired when needed.
func TestPipelineFlowChainTopology(t *testing.T) {
	n, d := chainRing(t, 6)
	r, rep, err := resilience.Synthesize(ctx, n, d, 2, resilience.Options{Strategy: resilience.Combined})
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	if !verify.Resilient(r, 2) {
		t.Fatal("routing not 2-resilient")
	}
	if !rep.Reduced || rep.NodesRemoved == 0 {
		t.Errorf("reduction not applied: %+v", rep)
	}
	if !r.Complete() {
		t.Error("routing incomplete")
	}
}

func TestPipelineSoundReduction(t *testing.T) {
	n, d := chainRing(t, 6)
	r, rep, err := resilience.Synthesize(ctx, n, d, 2, resilience.Options{
		Strategy:  resilience.Combined,
		Reduction: reduce.Sound,
	})
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	if !verify.Resilient(r, 2) {
		t.Fatal("routing not 2-resilient")
	}
	if rep.NodesRemoved != 4 {
		t.Errorf("NodesRemoved = %d, want 4", rep.NodesRemoved)
	}
}

func TestSynthesizeTimeout(t *testing.T) {
	n, d := chainRing(t, 6)
	_, _, err := resilience.Synthesize(ctx, n, d, 3, resilience.Options{
		Strategy: resilience.Baseline,
		Timeout:  time.Nanosecond,
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want DeadlineExceeded", err)
	}
}

func TestSynthesizeUnknownStrategy(t *testing.T) {
	n := papernet.Figure1()
	_, _, err := resilience.Synthesize(ctx, n, 0, 2, resilience.Options{Strategy: resilience.Strategy(42)})
	if err == nil {
		t.Error("unknown strategy accepted")
	}
}

func TestStrategyString(t *testing.T) {
	tests := []struct {
		s    resilience.Strategy
		want string
	}{
		{resilience.Baseline, "baseline"},
		{resilience.HeuristicOnly, "heuristic"},
		{resilience.ReductionOnly, "reduction"},
		{resilience.Combined, "combined"},
	}
	for _, tt := range tests {
		if got := tt.s.String(); got != tt.want {
			t.Errorf("String(%d) = %q, want %q", int(tt.s), got, tt.want)
		}
	}
	if resilience.Strategy(9).String() == "" {
		t.Error("unknown Strategy.String empty")
	}
}

// TestRepairFigure1b: the standalone repair entry point fortifies Figure 1b.
func TestRepairFigure1b(t *testing.T) {
	n := papernet.Figure1()
	r := papernet.Figure1bRouting(n)
	out, err := resilience.Repair(ctx, r, 2, resilience.Options{})
	if err != nil {
		t.Fatalf("Repair: %v", err)
	}
	if !verify.Resilient(out.Routing, 2) {
		t.Fatal("repaired routing not 2-resilient")
	}
}

// TestRepairUnsolvable: a repair that cannot succeed maps to
// ErrUnsolvable.
func TestRepairUnsolvable(t *testing.T) {
	// Reuse the unrepairable square from the repair package tests.
	b := network.NewBuilder("square")
	d := b.AddNode("d")
	x := b.AddNode("x")
	y := b.AddNode("y")
	z := b.AddNode("z")
	f0 := b.AddEdge(d, x)
	f1 := b.AddEdge(d, z)
	f2 := b.AddEdge(x, y)
	f3 := b.AddEdge(y, z)
	n := b.MustBuild()

	r := papernetSquareRouting(n, d, f0, f1, f2, f3, x, y, z)
	_, err := resilience.Repair(ctx, r, 1, resilience.Options{})
	if !errors.Is(err, resilience.ErrUnsolvable) {
		t.Errorf("err = %v, want ErrUnsolvable", err)
	}
}

func papernetSquareRouting(n *network.Network, d network.NodeID,
	f0, f1, f2, f3 network.EdgeID, x, y, z network.NodeID) *routing.Routing {
	r := routing.New(n, d)
	r.MustSet(n.Loopback(x), x, []network.EdgeID{f0, f2})
	r.MustSet(f2, x, []network.EdgeID{f0})
	r.MustSet(f0, x, []network.EdgeID{f2, f0})
	r.MustSet(n.Loopback(z), z, []network.EdgeID{f1, f3})
	r.MustSet(f3, z, []network.EdgeID{f1})
	r.MustSet(f1, z, []network.EdgeID{f3, f1})
	r.MustSet(n.Loopback(y), y, []network.EdgeID{f2, f3})
	r.MustSet(f2, y, []network.EdgeID{f3, f2})
	r.MustSet(f3, y, []network.EdgeID{f2, f3})
	return r
}

func TestSkipFinalVerify(t *testing.T) {
	n := papernet.Figure1()
	d := papernet.Figure1Dest(n)
	r, _, err := resilience.Synthesize(ctx, n, d, 1, resilience.Options{
		Strategy:        resilience.HeuristicOnly,
		SkipFinalVerify: true,
	})
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	// The pipeline's own invariants still guarantee resilience.
	if !verify.Resilient(r, 1) {
		t.Error("routing not 1-resilient despite SkipFinalVerify")
	}
}

func TestReductionOnlySoundRule(t *testing.T) {
	n, d := chainRing(t, 5)
	r, rep, err := resilience.Synthesize(ctx, n, d, 1, resilience.Options{
		Strategy:  resilience.ReductionOnly,
		Reduction: reduce.Sound,
	})
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	if !verify.Resilient(r, 1) {
		t.Fatal("routing not 1-resilient")
	}
	if !rep.Reduced {
		t.Error("reduction not reported")
	}
}

func TestRepairGradual(t *testing.T) {
	n := papernet.Figure1()
	r := papernet.Figure1bRouting(n)
	out, err := resilience.Repair(ctx, r, 2, resilience.Options{RepairStrategy: repair.Gradual})
	if err != nil {
		t.Fatalf("Repair: %v", err)
	}
	if !verify.Resilient(out.Routing, 2) {
		t.Fatal("gradual repair not 2-resilient")
	}
}
