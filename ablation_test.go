// Ablation benchmarks for the design choices DESIGN.md calls out: repair
// removal strategy (remove-all vs gradual vs no escalation), reduction rule
// (sound vs aggressive vs none), scenario-engine pruning (concrete-trace
// fast path), and dynamic variable reordering in overflow recovery.
package syrep_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"syrep/internal/encode"
	"syrep/internal/heuristic"
	"syrep/internal/papernet"
	"syrep/internal/reduce"
	"syrep/internal/repair"
	"syrep/internal/resilience"
	"syrep/internal/topozoo"
)

// ablationInstance is a mid-size chain-rich topology where all strategies
// finish quickly but differ measurably.
func ablationInstance() topozoo.Instance {
	for _, inst := range topozoo.Embedded() {
		if inst.Name == "Cesnet" {
			return inst
		}
	}
	panic("Cesnet missing")
}

func BenchmarkAblationRepairRemoveAll(b *testing.B) {
	benchRepairStrategy(b, repair.Options{Strategy: repair.RemoveAll})
}

func BenchmarkAblationRepairGradual(b *testing.B) {
	benchRepairStrategy(b, repair.Options{Strategy: repair.Gradual})
}

func benchRepairStrategy(b *testing.B, opts repair.Options) {
	n := papernet.Figure1()
	r := papernet.Figure1bRouting(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := repair.Repair(context.Background(), r, 2, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationReductionSound(b *testing.B) {
	benchReductionRule(b, reduce.Sound)
}

func BenchmarkAblationReductionAggressive(b *testing.B) {
	benchReductionRule(b, reduce.Aggressive)
}

func benchReductionRule(b *testing.B, rule reduce.Rule) {
	inst := ablationInstance()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, err := resilience.Synthesize(context.Background(), inst.Net, inst.Dest, 2, resilience.Options{
			Strategy:  resilience.Combined,
			Reduction: rule,
			Timeout:   20 * time.Second,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationNoReduction(b *testing.B) {
	inst := ablationInstance()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, err := resilience.Synthesize(context.Background(), inst.Net, inst.Dest, 2, resilience.Options{
			Strategy: resilience.HeuristicOnly,
			Timeout:  20 * time.Second,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationRepairVsResynthesis quantifies the paper's core claim in
// miniature: repairing the heuristic table (few BDD variables) vs
// synthesising every entry from scratch (all variables symbolic).
func BenchmarkAblationRepairVsResynthesis(b *testing.B) {
	inst := ablationInstance()
	h, err := heuristic.Generate(context.Background(), inst.Net, inst.Dest)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("repair", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := repair.Repair(context.Background(), h, 2, repair.Options{Escalate: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("full-synthesis", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			// The baseline may exceed the budget on this instance — that IS
			// the ablation's point; count the bounded attempt either way.
			_, _, err := resilience.Synthesize(context.Background(), inst.Net, inst.Dest, 2, resilience.Options{
				Strategy: resilience.Baseline,
				Timeout:  20 * time.Second,
			})
			if err != nil && !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, resilience.ErrUnsolvable) {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationScenarioFastPath measures the concrete-trace fast path of
// the scenario engine by comparing a repair with few holes (fast path
// dominates) against full synthesis where every scenario is symbolic.
func BenchmarkAblationScenarioFastPath(b *testing.B) {
	n := papernet.Figure1()
	r := papernet.Figure1bRouting(n)
	// Punch one hole: nearly every scenario resolves concretely.
	v4 := n.NodeByName("v4")
	holey := r.Clone()
	if err := holey.PunchHole(6, v4, 3); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol, err := encode.Solve(context.Background(), holey, 1, encode.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if sol.SymbolicScenarios >= sol.Scenarios {
			b.Fatal("fast path never used")
		}
	}
}
