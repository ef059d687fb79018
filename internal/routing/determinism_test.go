package routing_test

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"syrep/internal/papernet"
	"syrep/internal/resilience"
)

// TestSynthesisDeterministic is the repo's reproducibility contract: running
// the full synthesis pipeline twice on the same topology must yield
// byte-identical encoded routing tables, for every strategy. A failure here
// means map-iteration order (or BDD Ref allocation order) leaked into the
// result — the exact bug class the maporder/bddref analyzers guard against.
func TestSynthesisDeterministic(t *testing.T) {
	ctx := context.Background()
	for _, s := range []resilience.Strategy{resilience.Baseline, resilience.HeuristicOnly, resilience.ReductionOnly, resilience.Combined} {
		t.Run(s.String(), func(t *testing.T) {
			encode := func() []byte {
				n := papernet.Figure1()
				d := papernet.Figure1Dest(n)
				r, _, err := resilience.Synthesize(ctx, n, d, 2, resilience.Options{Strategy: s})
				if err != nil {
					t.Fatalf("Synthesize: %v", err)
				}
				data, err := json.Marshal(r)
				if err != nil {
					t.Fatalf("Marshal: %v", err)
				}
				return data
			}
			first, second := encode(), encode()
			if !bytes.Equal(first, second) {
				t.Errorf("two synthesis runs produced different encoded tables:\nrun 1: %s\nrun 2: %s", first, second)
			}
		})
	}
}
