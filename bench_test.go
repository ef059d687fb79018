// Package-level benchmarks, one per table/figure of the SyRep paper's
// evaluation (Section V). Each benchmark regenerates the corresponding
// artefact on a laptop-scale slice of the topology suite; `cmd/syrep-bench`
// runs the full-size versions and renders the tables.
//
//	Figure 5      -> BenchmarkFig5ReductionEffect
//	Figure 7a     -> BenchmarkFig7aCactusK2
//	Figure 7b     -> BenchmarkFig7bRatioK2
//	Figure 7c     -> BenchmarkFig7cCactusK3
//	Figure 7d     -> BenchmarkFig7dRatioK3
//	Figure 8      -> BenchmarkFig8EdgesVsRuntime
//	Figure 9      -> BenchmarkFig9NodesVsRuntime
//	Fig. 1 repair -> BenchmarkRunningExampleRepair
//	Fig. 2 BDD    -> BenchmarkFigure2Symbolic
//
// Micro-benchmarks for the substrates (BDD operations, verification,
// heuristic generation) live at the bottom.
package syrep_test

import (
	"context"
	"io"
	"testing"
	"time"

	"syrep/internal/bdd"
	"syrep/internal/benchmark"
	"syrep/internal/encode"
	"syrep/internal/heuristic"
	"syrep/internal/papernet"
	"syrep/internal/reduce"
	"syrep/internal/repair"
	"syrep/internal/resilience"
	"syrep/internal/routing"
	"syrep/internal/topozoo"
	"syrep/internal/verify"
)

// benchSuite is a small deterministic suite: two embedded topologies plus
// two generated ones, so that `go test -bench=.` stays laptop-friendly.
func benchSuite(maxNodes int) []topozoo.Instance {
	var out []topozoo.Instance
	for _, inst := range topozoo.Embedded() {
		if inst.Net.NumNodes() <= maxNodes {
			switch inst.Name {
			case "Abilene", "Cesnet", "Arpanet1970":
				out = append(out, inst)
			}
		}
	}
	out = append(out, topozoo.GeneratedSuite(topozoo.SuiteConfig{
		MinNodes: 8, MaxNodes: 12, Step: 4, SeedsPerSize: 1,
	})...)
	return out
}

func benchConfig(k int) benchmark.Config {
	return benchmark.Config{
		K:       k,
		Timeout: 5 * time.Second,
		Methods: []resilience.Strategy{resilience.Baseline, resilience.HeuristicOnly, resilience.ReductionOnly, resilience.Combined},
	}
}

func BenchmarkFig5ReductionEffect(b *testing.B) {
	suite := topozoo.Embedded()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := benchmark.WriteReductionEffects(context.Background(), io.Discard, suite); err != nil {
			b.Fatal(err)
		}
	}
}

func benchFig7(b *testing.B, k int, ratio bool) {
	suite := benchSuite(14)
	cfg := benchConfig(k)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results := benchmark.Run(context.Background(), suite, cfg)
		var err error
		if ratio {
			err = benchmark.WriteRatios(io.Discard, results, resilience.Combined, resilience.Baseline)
		} else {
			err = benchmark.WriteCactus(io.Discard, results, cfg.Methods)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7aCactusK2(b *testing.B) { benchFig7(b, 2, false) }
func BenchmarkFig7bRatioK2(b *testing.B)  { benchFig7(b, 2, true) }
func BenchmarkFig7cCactusK3(b *testing.B) { benchFig7(b, 3, false) }
func BenchmarkFig7dRatioK3(b *testing.B)  { benchFig7(b, 3, true) }

func benchScatter(b *testing.B, byEdges bool) {
	suite := benchSuite(14)
	cfg := benchmark.Config{K: 2, Timeout: 5 * time.Second, Methods: []resilience.Strategy{resilience.Combined}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results := benchmark.Run(context.Background(), suite, cfg)
		if err := benchmark.WriteScatter(io.Discard, results, resilience.Combined, byEdges); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8EdgesVsRuntime(b *testing.B) { benchScatter(b, true) }
func BenchmarkFig9NodesVsRuntime(b *testing.B) { benchScatter(b, false) }

// BenchmarkRunningExampleRepair measures the paper's Figure 1 repair: six
// suspicious entries replaced to reach perfect 2-resilience.
func BenchmarkRunningExampleRepair(b *testing.B) {
	n := papernet.Figure1()
	r := papernet.Figure1bRouting(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := repair.Repair(context.Background(), r, 2, repair.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure2Symbolic measures the literal symbolic-failure encoding on
// the paper's Figure 2 network.
func BenchmarkFigure2Symbolic(b *testing.B) {
	n := papernet.Figure2()
	d := n.NodeByName("d")
	v1 := n.NodeByName("v1")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := routing.New(n, d)
		if err := r.PunchHole(n.Loopback(v1), v1, 3); err != nil {
			b.Fatal(err)
		}
		if _, err := encode.BuildSymbolic(context.Background(), r, 2, encode.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- substrate micro-benchmarks ---

func BenchmarkBDDApply(b *testing.B) {
	m := bdd.New()
	vars := m.NewVars("x", 24)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := bdd.True
		for j := 0; j+1 < len(vars); j += 2 {
			f = m.Or(f, m.And(m.VarRef(vars[j]), m.VarRef(vars[j+1])))
		}
	}
}

func BenchmarkBDDParity16(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := bdd.New()
		vars := m.NewVars("x", 16)
		f := bdd.False
		for _, v := range vars {
			f = m.Xor(f, m.VarRef(v))
		}
		if m.NodeCount(f) != 31 {
			b.Fatal("parity BDD wrong size")
		}
	}
}

func BenchmarkVerifyAbileneK2(b *testing.B) {
	var abilene topozoo.Instance
	for _, inst := range topozoo.Embedded() {
		if inst.Name == "Abilene" {
			abilene = inst
		}
	}
	r, err := heuristic.Generate(context.Background(), abilene.Net, abilene.Dest)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := verify.Check(context.Background(), r, 2, verify.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHeuristicGenerate(b *testing.B) {
	net := topozoo.Generate(topozoo.GenConfig{Nodes: 60, Seed: 5})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := heuristic.Generate(context.Background(), net, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReduceAggressive(b *testing.B) {
	net := topozoo.Generate(topozoo.GenConfig{Nodes: 80, Seed: 5})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := reduce.Apply(context.Background(), net, 0, reduce.Aggressive); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTraceAllSources(b *testing.B) {
	n := papernet.Figure1()
	r := papernet.Figure1bRouting(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := verify.Check(context.Background(), r, 1, verify.Options{})
		if err != nil || !rep.Resilient {
			b.Fatal("verification failed")
		}
	}
}
