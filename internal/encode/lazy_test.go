package encode_test

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"syrep/internal/bdd"
	"syrep/internal/encode"
	"syrep/internal/heuristic"
	"syrep/internal/papernet"
	"syrep/internal/routing"
	"syrep/internal/topozoo"
	"syrep/internal/verify"
	"syrep/internal/verify/vgen"
)

// lazyCase is one differential instance: a hole-free routing whose
// suspicious entries (at each k) become the holes to fill.
type lazyCase struct {
	name string
	r    *routing.Routing
}

// lazyCorpus is the vgen corpus — corrupted Zoo-like multigraphs with
// truncated, duplicated and bounced entries — plus the heuristic routing of
// every embedded topology toward every destination.
func lazyCorpus(t *testing.T) []lazyCase {
	t.Helper()
	var out []lazyCase
	for seed := int64(1); seed <= 4; seed++ {
		for _, cfg := range []vgen.Config{
			{Nodes: 6, Seed: seed, TruncateShare: 0.1},
			{Nodes: 8, Seed: seed, TruncateShare: 0.05, BounceShare: 0.05},
			{Nodes: 10, Seed: seed, TruncateShare: 0.1, ParallelEdgeShare: 0.3},
			{Nodes: 12, Seed: seed, TruncateShare: 0.05},
		} {
			r, err := vgen.Corrupted(cfg)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, lazyCase{name: cfg.String(), r: r})
		}
	}
	for _, in := range topozoo.Embedded() {
		for _, d := range in.Net.Nodes() {
			r, err := heuristic.Generate(ctx, in.Net, d)
			if err != nil {
				t.Fatalf("%s/%s: %v", in.Name, in.Net.NodeName(d), err)
			}
			out = append(out, lazyCase{name: in.Name + "/" + in.Net.NodeName(d), r: r})
		}
	}
	return out
}

// punchSuspiciousAt returns r with every entry suspicious at k punched as a
// hole of list length k+1, or nil when r is already k-resilient.
func punchSuspiciousAt(t *testing.T, r *routing.Routing, k int) *routing.Routing {
	t.Helper()
	rep, err := verify.Check(ctx, r, k, verify.Options{Prune: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Resilient {
		return nil
	}
	holey := r.Clone()
	for _, key := range rep.Suspicious() {
		if err := holey.PunchHole(key.In, key.At, k+1); err != nil {
			t.Fatal(err)
		}
	}
	return holey
}

// The differential bounds its solves. With more than maxDiffHoles holes the
// eager oracle almost always outgrows diffOpts' node budget on the embedded
// topologies at k >= 2, and then has no verdict to compare against; the
// rare overflow below the cap is skipped as well. Reordering stays off,
// because an overflow-triggered reorder changes the level order the
// filling is extracted in (see Solve).
const maxDiffHoles = 13

var diffOpts = encode.Options{NodeLimit: 1 << 17, DisableReorder: true}

// TestLazyMatchesEager is the differential for counterexample-guided
// solving, with the eager encoding as the oracle: over the vgen corpus and
// the embedded topologies at k in {1,2,3}, with the suspicious entries as
// holes, Solve must fill exactly the table SolveEager fills (equal
// fingerprints) and report ErrUnrepairable exactly when SolveEager does.
func TestLazyMatchesEager(t *testing.T) {
	var filled, unrepairable int
	for _, c := range lazyCorpus(t) {
		for k := 1; k <= 3; k++ {
			holey := punchSuspiciousAt(t, c.r, k)
			if holey == nil || holey.NumHoles() > maxDiffHoles {
				continue
			}
			eager, eerr := encode.SolveEager(ctx, holey, k, diffOpts)
			if errors.Is(eerr, bdd.ErrNodeLimit) {
				continue
			}
			lazy, lerr := encode.Solve(ctx, holey, k, diffOpts)
			name := fmt.Sprintf("%s k=%d (%d holes)", c.name, k, holey.NumHoles())
			if errors.Is(eerr, encode.ErrUnrepairable) {
				unrepairable++
				if !errors.Is(lerr, encode.ErrUnrepairable) {
					t.Errorf("%s: eager unrepairable, lazy err = %v", name, lerr)
				}
				continue
			}
			if eerr != nil || lerr != nil {
				t.Errorf("%s: eager err = %v, lazy err = %v", name, eerr, lerr)
				continue
			}
			filled++
			if got, want := lazy.Routing.Fingerprint(), eager.Routing.Fingerprint(); got != want {
				t.Errorf("%s: lazy fingerprint %s, eager %s", name, got, want)
			}
			if lazy.ScenariosEncoded > eager.ScenariosEncoded || lazy.Scenarios != eager.Scenarios {
				t.Errorf("%s: lazy encoded %d of %d scenarios, eager %d of %d", name,
					lazy.ScenariosEncoded, lazy.Scenarios, eager.ScenariosEncoded, eager.Scenarios)
			}
			if lazy.CheckRounds < 1 || eager.CheckRounds != 0 {
				t.Errorf("%s: check rounds lazy %d, eager %d", name, lazy.CheckRounds, eager.CheckRounds)
			}
		}
	}
	// Guard the corpus itself: a generator change that left nothing to
	// compare would make this test vacuous.
	if filled < 50 || unrepairable < 10 {
		t.Errorf("corpus too thin: %d filled and %d unrepairable comparisons", filled, unrepairable)
	}
	t.Logf("%d filled tables equal, %d unrepairable verdicts equal", filled, unrepairable)
}

// TestLazyEncodesFewerScenarios pins the point of the lazy path on a
// repair-bound instance: Abilene toward Houston at k=3 fills the eager
// table while conjoining strictly fewer scenario constraints.
func TestLazyEncodesFewerScenarios(t *testing.T) {
	var in topozoo.Instance
	for _, cand := range topozoo.Embedded() {
		if cand.Name == "Abilene" {
			in = cand
		}
	}
	if in.Net == nil {
		t.Fatal("Abilene not embedded")
	}
	r, err := heuristic.Generate(ctx, in.Net, in.Net.NodeByName("Houston"))
	if err != nil {
		t.Fatal(err)
	}
	const k = 3
	holey := punchSuspiciousAt(t, r, k)
	if holey == nil {
		t.Fatal("fixture unexpectedly 3-resilient")
	}
	eager, err := encode.SolveEager(ctx, holey, k, encode.Options{})
	if err != nil {
		t.Fatal(err)
	}
	lazy, err := encode.Solve(ctx, holey, k, encode.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !lazy.Routing.Equal(eager.Routing) {
		t.Fatal("lazy filling differs from eager")
	}
	if lazy.ScenariosEncoded >= eager.ScenariosEncoded {
		t.Errorf("lazy encoded %d scenarios, eager %d: want fewer", lazy.ScenariosEncoded, eager.ScenariosEncoded)
	}
	t.Logf("scenarios %d: eager encoded %d, lazy %d in %d check rounds",
		eager.Scenarios, eager.ScenariosEncoded, lazy.ScenariosEncoded, lazy.CheckRounds)
}

// countingCtx is a context that starts reporting context.Canceled at its
// n-th Err call and keeps reporting it. It never closes Done; everything
// the solve path polls goes through Err.
type countingCtx struct {
	context.Context
	n, calls int
}

func (c *countingCtx) Err() error {
	c.calls++
	if c.calls >= c.n {
		return context.Canceled
	}
	return nil
}

// TestSolveNeverSwallowsCancellation cancels a solve at every point where it
// polls its context, on the paper's Figure 1b repair at k=2. Whenever the
// context reported cancellation, the solve must fail with the context's
// error: a cancelled fixpoint must not pass for a satisfied scenario.
func TestSolveNeverSwallowsCancellation(t *testing.T) {
	n := papernet.Figure1()
	r := papernet.Figure1bRouting(n)
	punchSuspicious(t, n, r, 2)
	for _, solve := range []struct {
		name string
		fn   func(context.Context, *routing.Routing, int, encode.Options) (*encode.Solution, error)
	}{
		{"lazy", encode.Solve},
		{"eager", encode.SolveEager},
	} {
		t.Run(solve.name, func(t *testing.T) {
			points := 0
			for n := 1; ; n++ {
				c := &countingCtx{Context: context.Background(), n: n}
				_, err := solve.fn(c, r, 2, encode.Options{})
				if c.calls < n {
					// The context never reported cancellation: the
					// solve ran to completion.
					if err != nil {
						t.Fatalf("uncancelled solve failed: %v", err)
					}
					break
				}
				points++
				if !errors.Is(err, context.Canceled) {
					t.Errorf("cancelled at Err call %d: err = %v, want context.Canceled", n, err)
				}
				if n > 1<<16 {
					t.Fatal("solve polls its context without bound")
				}
			}
			if points == 0 {
				t.Fatal("solve never polled its context")
			}
			t.Logf("%d cancellation points", points)
		})
	}
}
