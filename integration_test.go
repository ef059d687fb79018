// Integration sweep: the full SyRep pipeline over a deterministic slice of
// the topology suite, with every produced routing re-verified by the
// independent brute-force verifier and spot-checked for stretch sanity.
package syrep_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"syrep/internal/combinatorial"
	"syrep/internal/network"
	"syrep/internal/quality"
	"syrep/internal/resilience"
	"syrep/internal/topozoo"
	"syrep/internal/verify"
)

func TestIntegrationPipelineSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("integration sweep skipped in -short mode")
	}
	ctx := context.Background()
	suite := topozoo.GeneratedSuite(topozoo.SuiteConfig{
		MinNodes: 8, MaxNodes: 16, Step: 4, SeedsPerSize: 1,
	})
	for _, inst := range topozoo.Embedded() {
		if inst.Net.NumNodes() <= 11 {
			suite = append(suite, inst)
		}
	}
	for _, inst := range suite {
		for k := 1; k <= 2; k++ {
			r, rep, err := resilience.Synthesize(ctx, inst.Net, inst.Dest, k, resilience.Options{
				Strategy: resilience.Combined,
				Timeout:  30 * time.Second,
			})
			if err != nil {
				if errors.Is(err, resilience.ErrUnsolvable) || errors.Is(err, context.DeadlineExceeded) {
					t.Logf("%s k=%d: %v (accepted)", inst.Name, k, err)
					continue
				}
				t.Fatalf("%s k=%d: %v", inst.Name, k, err)
			}
			check, err := verify.Check(ctx, r, k, verify.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !check.Resilient {
				t.Fatalf("%s k=%d: pipeline output not resilient: %v",
					inst.Name, k, check.Failing)
			}
			if !r.Complete() {
				t.Errorf("%s k=%d: incomplete routing", inst.Name, k)
			}
			if rep.Elapsed <= 0 {
				t.Errorf("%s k=%d: missing timing", inst.Name, k)
			}
			// Failure-free stretch of a synthesised routing is finite and
			// at least 1 for every source.
			sr, err := quality.Stretch(r, network.NewEdgeSet(inst.Net.NumRealEdges()))
			if err != nil {
				t.Fatal(err)
			}
			if len(sr.Undelivered) != 0 {
				t.Errorf("%s k=%d: undelivered sources on intact network", inst.Name, k)
			}
			if sr.Max < 1 && len(sr.PerSource) > 0 {
				t.Errorf("%s k=%d: stretch below 1", inst.Name, k)
			}
		}
	}
}

// TestIntegrationCombinatorialEquivalence compiles a synthesised routing to
// a combinatorial table and checks the resilience verdict transfers.
func TestIntegrationCombinatorialEquivalence(t *testing.T) {
	ctx := context.Background()
	inst := topozoo.Instance{
		Net:  topozoo.Generate(topozoo.GenConfig{Nodes: 10, Seed: 4}),
		Dest: 0,
		Name: "zoo10",
	}
	r, _, err := resilience.Synthesize(ctx, inst.Net, inst.Dest, 2, resilience.Options{
		Strategy: resilience.Combined,
		Timeout:  30 * time.Second,
	})
	if err != nil {
		t.Skipf("instance unsolved: %v", err)
	}
	tab, err := combinatorial.FromSkipping(r)
	if err != nil {
		t.Fatal(err)
	}
	if !tab.Resilient(2) {
		t.Error("combinatorial compilation lost 2-resilience")
	}
	if tab.NumEntries() <= r.NumEntries() {
		t.Errorf("combinatorial entries %d <= skipping %d", tab.NumEntries(), r.NumEntries())
	}
}
