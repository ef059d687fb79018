package resilience_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"syrep/internal/network"
	"syrep/internal/papernet"
	"syrep/internal/resilience"
	"syrep/internal/resilience/faultinject"
)

// latencyBound is how long a stage may take to notice a cancellation. It is
// deliberately generous — CI machines under -race are slow — while still
// catching a stage that ignores its context outright (which shows up as the
// stage running to completion, seconds to minutes on the instances below).
const latencyBound = 5 * time.Second

// TestCancellationLatencyBounded cancels the run at every pipeline stage, on
// an instance large enough that each stage does real work, and asserts the
// run returns promptly: every stage must poll its context. The Garr/Combined
// run covers the reduction, heuristic, reduced verify+repair, expansion, and
// original verify+repair stages; Figure 1 covers from-scratch synthesis and
// the final safety-net verification.
func TestCancellationLatencyBounded(t *testing.T) {
	faultinject.LeakCheck(t)
	garr := zooInstance(t, "Garr")
	fig1 := papernet.Figure1()
	fig1Dest := papernet.Figure1Dest(fig1)

	cases := []struct {
		net   *network.Network
		dest  network.NodeID
		strat resilience.Strategy
		stage resilience.Stage
	}{
		{garr.Net, garr.Dest, resilience.Combined, resilience.StageReduce},
		{garr.Net, garr.Dest, resilience.Combined, resilience.StageHeuristic},
		{garr.Net, garr.Dest, resilience.Combined, resilience.StageVerifyReduced},
		{garr.Net, garr.Dest, resilience.Combined, resilience.StageRepairReduced},
		{garr.Net, garr.Dest, resilience.Combined, resilience.StageExpand},
		{garr.Net, garr.Dest, resilience.Combined, resilience.StageVerify},
		{garr.Net, garr.Dest, resilience.Combined, resilience.StageRepair},
		{fig1, fig1Dest, resilience.Baseline, resilience.StageSynth},
		{fig1, fig1Dest, resilience.Combined, resilience.StageFinalVerify},
	}
	for _, tc := range cases {
		t.Run(string(tc.stage), func(t *testing.T) {
			cctx, cancel := context.WithCancel(ctx)
			defer cancel()
			var cancelledAt time.Time
			inj := faultinject.New(faultinject.Fault{
				Stage: tc.stage, Kind: faultinject.Cancel,
			}).BindCancel(func() {
				cancelledAt = time.Now()
				cancel()
			})
			_, _, err := resilience.Synthesize(cctx, tc.net, tc.dest, 2, resilience.Options{
				Strategy: tc.strat,
				Hook:     inj,
				// Keep the Partial pricing pass from dominating the latency
				// measurement; it runs on a detached context by design.
				GraceVerify: time.Second,
			})
			if cancelledAt.IsZero() {
				t.Fatalf("stage %s never reached; cancel fault did not fire (visited %v)",
					tc.stage, inj.Visited())
			}
			latency := time.Since(cancelledAt)
			if err == nil {
				t.Fatal("run succeeded despite cancellation")
			}
			if !errors.Is(err, context.Canceled) {
				t.Errorf("err = %v, want to unwrap to context.Canceled", err)
			}
			if latency > latencyBound {
				t.Errorf("stage %s took %s to honour cancellation (bound %s)",
					tc.stage, latency, latencyBound)
			}
		})
	}
}

// TestDeadlineInsideBDDOperation: a run whose deadline expires in the middle
// of one large BDD operation still returns promptly. Renater/Montpellier at
// k=2 spends its time in repair conjunctions that each run for seconds, so
// the deadline must be honoured inside a single BDD operation
// (bdd.Manager.SetContext); polling only between fixpoint sweeps returns
// about 7 s after a 3 s limit.
func TestDeadlineInsideBDDOperation(t *testing.T) {
	if testing.Short() {
		t.Skip("runs for the full deadline")
	}
	const limit = 3 * time.Second
	renater := zooInstance(t, "Renater")
	dest := renater.Net.NodeByName("Montpellier")
	start := time.Now()
	_, _, err := resilience.Synthesize(ctx, renater.Net, dest, 2, resilience.Options{
		Strategy: resilience.Combined,
		Timeout:  limit,
	})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatalf("run resolved within %s; the instance no longer exercises the deadline", elapsed)
	}
	if elapsed > 2*limit {
		t.Errorf("run took %s, want at most %s (2x its %s limit)", elapsed, 2*limit, limit)
	}
}
