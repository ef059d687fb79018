// Package verify implements brute-force verification of perfect
// k-resilience (Section III-B of the SyRep paper). For small k, it
// systematically enumerates every failure scenario |F| <= k and follows the
// trace from every source node; failing deliveries are recorded together
// with the routing entries that fired along their traces, which become the
// *suspicious* entries fed to the repair engine.
package verify

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"syrep/internal/network"
	"syrep/internal/obs"
	"syrep/internal/routing"
	"syrep/internal/trace"
)

// FailingDelivery is a pair (source, F) such that the packet starting at
// source is not delivered under failure scenario F even though source and
// destination remain connected in G∖F (Section III-B).
type FailingDelivery struct {
	Source  network.NodeID
	Failed  network.EdgeSet
	Outcome trace.Outcome
	// Used are the routing entries that fired along the failing trace.
	Used []routing.Key
	// Visited are the nodes the failing trace passed through (including the
	// node where it was dropped or looped), deduplicated.
	Visited []network.NodeID
}

// Report summarises a verification run.
type Report struct {
	// K is the resilience level that was checked.
	K int
	// Resilient is true when the routing is perfectly K-resilient.
	Resilient bool
	// Failing lists the failing deliveries found. When pruning is enabled,
	// subsumed failures (same source, superset scenario, no new entries) are
	// omitted per Section III-C. The ordering is pinned: deliveries appear
	// in scenario enumeration order (ForEachScenario) and, within one
	// scenario, in ascending source-node order — identically for sequential
	// and parallel runs under every option combination.
	Failing []FailingDelivery
	// Scenarios is the number of failure scenarios examined.
	Scenarios int
	// Traces is the number of traces followed.
	Traces int
}

// Suspicious returns the union of routing entries that fired along failing
// traces, sorted deterministically. These are the entries the repair engine
// removes and re-synthesises.
func (rep *Report) Suspicious() []routing.Key {
	seen := make(map[routing.Key]bool)
	for _, f := range rep.Failing {
		for _, k := range f.Used {
			seen[k] = true
		}
	}
	out := make([]routing.Key, 0, len(seen))
	for k := range seen {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].At != out[j].At {
			return out[i].At < out[j].At
		}
		return out[i].In < out[j].In
	})
	return out
}

// Options configures verification.
type Options struct {
	// MaxFailures caps the number of failing deliveries collected; 0 means
	// collect all. Verification still determines resilience exactly — the
	// cap only bounds the report size. Parallel runs without Prune
	// additionally bound every worker's buffer to MaxFailures entries, so a
	// capped parallel run holds at most GOMAXPROCS×MaxFailures deliveries
	// in memory before the merge. With Prune the worker buffers are bounded
	// by local subsumption instead of the cap: a worker cannot know which
	// of its entries the global merge-order prune will keep, so shedding at
	// the cap could drop an entry the sequential report contains. Either
	// way the merged report — contents and order — is identical to the
	// sequential one.
	MaxFailures int
	// Prune enables the subsumption rule of Section III-C: a failing
	// delivery (v, F2) is dropped when an already-recorded (v, F1) with
	// F1 ⊆ F2 used the same entries.
	Prune bool
	// Parallel enables concurrent scenario evaluation across GOMAXPROCS
	// workers.
	Parallel bool
	// StopAtFirst stops at the first failing delivery in scenario-enumeration
	// order. Sequential and parallel runs produce identical reports: parallel
	// workers cooperatively halt once any failing scenario is known, the
	// merge selects the globally lowest-index failing delivery, and the
	// Scenarios/Traces counts are restated to the exact sequential prefix.
	// Every option combination produces reports identical to sequential —
	// the differential suite locks this in.
	StopAtFirst bool
	// Counters, when non-nil, receives the verifier's counter stream:
	// scenarios examined, traces followed, failing deliveries reported,
	// and (parallel runs) deliveries buffered by workers before the merge.
	// Nil means unobserved.
	Counters *obs.VerifyCounters
}

// noCounters is the shared no-op bundle substituted for a nil
// Options.Counters: its fields are nil *obs.Counter, whose methods are
// no-ops, so call sites need no guards. Never mutated.
var noCounters = &obs.VerifyCounters{}

// ResilientCtx reports whether r is perfectly k-resilient, honouring ctx:
// a cancelled or expired context reports false. It is a convenience wrapper
// around Check that stops at the first counterexample — the first failing
// delivery in (scenario enumeration order, source-node order), a pinned
// ordering that sequential and parallel runs agree on.
func ResilientCtx(ctx context.Context, r *routing.Routing, k int) bool {
	rep, err := Check(ctx, r, k, Options{StopAtFirst: true})
	return err == nil && rep.Resilient
}

// Resilient is ResilientCtx with a background context, for boundaries that
// genuinely have no context (examples, tests). Code running under a deadline
// or supervisor must use ResilientCtx so cancellation stays bounded.
func Resilient(r *routing.Routing, k int) bool {
	return ResilientCtx(context.Background(), r, k)
}

// Check verifies perfect k-resilience of r per Definition 4: for every
// failure scenario F with |F| <= k and every source s still connected to the
// destination in G∖F, the trace from s must deliver. Traces that reach a
// hole count as failing (their behaviour is undefined).
//
// ctx cancellation aborts the run with ctx.Err().
func Check(ctx context.Context, r *routing.Routing, k int, opts Options) (*Report, error) {
	if k < 0 {
		return nil, fmt.Errorf("verify: negative resilience level %d", k)
	}
	if opts.Counters == nil {
		opts.Counters = noCounters
	}
	var (
		rep *Report
		err error
	)
	if opts.Parallel {
		rep, err = checkParallel(ctx, r, k, opts)
	} else {
		rep, err = checkSequential(ctx, r, k, opts)
	}
	if err != nil {
		return nil, err
	}
	opts.Counters.Failing.Add(int64(len(rep.Failing)))
	return rep, nil
}

func checkSequential(ctx context.Context, r *routing.Routing, k int, opts Options) (*Report, error) {
	rep := &Report{K: k, Resilient: true}
	n := r.Network()
	dest := r.Dest()
	var ctxErr error
	n.ForEachScenario(k, func(F network.EdgeSet) bool {
		if err := ctx.Err(); err != nil {
			ctxErr = err
			return false
		}
		rep.Scenarios++
		opts.Counters.Scenarios.Inc()
		reach := n.ReachableWithout(dest, F)
		for _, s := range n.Nodes() {
			if s == dest || !reach[s] {
				continue
			}
			rep.Traces++
			opts.Counters.Traces.Inc()
			if trace.Delivers(r, F, s) {
				continue
			}
			res := trace.Run(r, F, s)
			rep.Resilient = false
			rep.record(FailingDelivery{
				Source:  s,
				Failed:  F.Clone(),
				Outcome: res.Outcome,
				Used:    res.Used,
				Visited: visitedNodes(n, s, res.Edges),
			}, opts)
			if opts.StopAtFirst {
				return false
			}
		}
		return true
	})
	if ctxErr != nil {
		return nil, ctxErr
	}
	return rep, nil
}

// record appends a failing delivery, applying the subsumption rule and the
// collection cap.
func (rep *Report) record(f FailingDelivery, opts Options) {
	if opts.Prune {
		for _, prev := range rep.Failing {
			if prev.Source == f.Source && prev.Failed.SubsetOf(f.Failed) && sameEntries(prev.Used, f.Used) {
				return
			}
		}
	}
	if opts.MaxFailures > 0 && len(rep.Failing) >= opts.MaxFailures {
		return
	}
	rep.Failing = append(rep.Failing, f)
}

// visitedNodes reconstructs the node sequence of a trace (deduplicated,
// in first-visit order). edges[0] is the source's loop-back.
func visitedNodes(n *network.Network, source network.NodeID, edges []network.EdgeID) []network.NodeID {
	seen := make(map[network.NodeID]bool, len(edges)+1)
	out := []network.NodeID{source}
	seen[source] = true
	v := source
	for _, e := range edges[1:] {
		v = n.Other(e, v)
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// DeliveryFromTrace runs the trace from source under failure scenario failed
// and, when it does not deliver, packages the outcome as a FailingDelivery
// (cloning failed, so the caller may keep mutating its scenario set). The
// second result is false when the trace delivers — no failing delivery
// exists for this (source, failed) pair. It is the confirmation primitive
// for alternative backends: a counterexample built through it is by
// construction one the brute-force oracle would also report, provided the
// caller has checked that source remains connected to the destination in
// G∖failed.
func DeliveryFromTrace(r *routing.Routing, failed network.EdgeSet, source network.NodeID) (FailingDelivery, bool) {
	res := trace.Run(r, failed, source)
	if res.Outcome == trace.Delivered {
		return FailingDelivery{}, false
	}
	return FailingDelivery{
		Source:  source,
		Failed:  failed.Clone(),
		Outcome: res.Outcome,
		Used:    res.Used,
		Visited: visitedNodes(r.Network(), source, res.Edges),
	}, true
}

func sameEntries(a, b []routing.Key) bool {
	if len(a) != len(b) {
		return false
	}
	set := make(map[routing.Key]bool, len(a))
	for _, k := range a {
		set[k] = true
	}
	for _, k := range b {
		if !set[k] {
			return false
		}
	}
	return true
}

// taggedDelivery is a failing delivery annotated with the global scenario
// index that produced it, so the parallel merge can replay deliveries in
// sequential enumeration order.
type taggedDelivery struct {
	idx int
	f   FailingDelivery
}

// locallySubsumed reports whether f is subsumed by an entry already in a
// worker's buffer (the same rule Report.record applies). Subsumption is
// transitive — if q subsumes prev and prev subsumes f, then q subsumes f —
// so dropping f here never removes a delivery the merge-order replay would
// have kept: whatever would have pruned prev in the merged report prunes f
// as well.
func locallySubsumed(buf []taggedDelivery, f FailingDelivery) bool {
	for i := range buf {
		prev := &buf[i].f
		if prev.Source == f.Source && prev.Failed.SubsetOf(f.Failed) && sameEntries(prev.Used, f.Used) {
			return true
		}
	}
	return false
}

// checkParallel distributes scenarios over workers. Scenario enumeration is
// cheap relative to tracing, so every worker enumerates all scenarios and
// processes its share by index modulo the worker count.
//
// Workers tag buffered deliveries with their scenario index and the merge
// replays them through Report.record in global scenario order, which makes
// the parallel report identical to the sequential one for every option
// combination except the Prune+MaxFailures cap divergence documented on
// Options.MaxFailures. StopAtFirst runs take a dedicated path that is
// deep-equal to sequential by construction.
func checkParallel(ctx context.Context, r *routing.Routing, k int, opts Options) (*Report, error) {
	if opts.StopAtFirst {
		return checkParallelStopAtFirst(ctx, r, k, opts)
	}
	n := r.Network()
	dest := r.Dest()
	workers := runtime.GOMAXPROCS(0)
	if workers < 1 {
		workers = 1
	}

	type partial struct {
		failing   []taggedDelivery
		failed    bool
		scenarios int
		traces    int
	}
	parts := make([]partial, workers)
	var wg sync.WaitGroup

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := &parts[w]
			idx := -1
			n.ForEachScenario(k, func(F network.EdgeSet) bool {
				idx++
				if idx%workers != w {
					return true
				}
				if ctx.Err() != nil {
					return false
				}
				p.scenarios++
				opts.Counters.Scenarios.Inc()
				reach := n.ReachableWithout(dest, F)
				for _, s := range n.Nodes() {
					if s == dest || !reach[s] {
						continue
					}
					p.traces++
					opts.Counters.Traces.Inc()
					if trace.Delivers(r, F, s) {
						continue
					}
					res := trace.Run(r, F, s)
					p.failed = true
					f := FailingDelivery{
						Source:  s,
						Failed:  F.Clone(),
						Outcome: res.Outcome,
						Used:    res.Used,
						Visited: visitedNodes(n, s, res.Edges),
					}
					// Bound the worker-local buffer: apply the subsumption
					// rule against this worker's own entries, and — only
					// without Prune — cap the buffer at MaxFailures. The
					// merge applies the global rule again, so subsumption
					// only sheds deliveries that could never survive it.
					// The cap is safe without Prune (the first MaxFailures
					// merged entries are a prefix of the workers' buffers)
					// but not with it: the global merge-order prune may
					// reject buffered entries, letting a delivery past a
					// worker's cap into the sequential report, so pruned
					// runs keep every non-subsumed entry instead.
					if opts.Prune && locallySubsumed(p.failing, f) {
						continue
					}
					if !opts.Prune && opts.MaxFailures > 0 && len(p.failing) >= opts.MaxFailures {
						continue
					}
					p.failing = append(p.failing, taggedDelivery{idx: idx, f: f})
					opts.Counters.Collected.Inc()
				}
				return true
			})
		}(w)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	rep := &Report{K: k, Resilient: true}
	var all []taggedDelivery
	for i := range parts {
		rep.Scenarios += parts[i].scenarios
		rep.Traces += parts[i].traces
		if parts[i].failed {
			rep.Resilient = false
		}
		all = append(all, parts[i].failing...)
	}
	// Scenario indices are disjoint across workers (striped modulo the
	// worker count) and ascending within each worker's buffer, so a stable
	// sort on the index replays deliveries in exactly the sequential record
	// order; the entries of one scenario keep their source order.
	sort.SliceStable(all, func(i, j int) bool { return all[i].idx < all[j].idx })
	for _, t := range all {
		rep.record(t.f, opts)
	}
	return rep, nil
}

// checkParallelStopAtFirst evaluates scenarios in parallel while reproducing
// the sequential StopAtFirst report exactly. The shared minFail atomic holds
// the lowest scenario index known to fail; it only ever decreases. Workers
// process their stripe in ascending index order and halt as soon as their
// next index passes minFail, so every scenario below the final minFail is
// fully examined and the final minFail is the globally first failing
// scenario — the one the sequential run stops at. Within it, the owning
// worker records the first failing source in node order, which is exactly
// the sequential delivery.
//
// The merge then restates Scenarios/Traces to the sequential prefix: counts
// of other workers' overshoot (scenarios past minFail examined before the
// halt propagated) are discarded, and the delivered-trace prefix is
// recounted from reachability alone, which costs one BFS per scenario — far
// cheaper than the tracing already done. Counters are bumped post-merge in
// this mode so they match the report.
func checkParallelStopAtFirst(ctx context.Context, r *routing.Routing, k int, opts Options) (*Report, error) {
	n := r.Network()
	dest := r.Dest()
	workers := runtime.GOMAXPROCS(0)
	if workers < 1 {
		workers = 1
	}

	const noFail = int64(math.MaxInt64)
	var minFail atomic.Int64
	minFail.Store(noFail)

	type candidate struct {
		idx    int64
		traces int // traces in the failing scenario up to and including the failure
		f      FailingDelivery
	}
	type partial struct {
		scenarios int
		traces    int
		cand      *candidate
	}
	parts := make([]partial, workers)
	var wg sync.WaitGroup

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := &parts[w]
			idx := int64(-1)
			n.ForEachScenario(k, func(F network.EdgeSet) bool {
				idx++
				if int(idx)%workers != w {
					return true
				}
				// minFail only decreases, so once our ascending index reaches
				// it no later scenario of this stripe can matter.
				if idx >= minFail.Load() {
					return false
				}
				if ctx.Err() != nil {
					return false
				}
				p.scenarios++
				scenTraces := 0
				reach := n.ReachableWithout(dest, F)
				for _, s := range n.Nodes() {
					if s == dest || !reach[s] {
						continue
					}
					scenTraces++
					if trace.Delivers(r, F, s) {
						continue
					}
					res := trace.Run(r, F, s)
					// First failing source of this scenario in node order —
					// the delivery sequential would report if this is the
					// first failing scenario overall.
					p.cand = &candidate{idx: idx, traces: scenTraces, f: FailingDelivery{
						Source:  s,
						Failed:  F.Clone(),
						Outcome: res.Outcome,
						Used:    res.Used,
						Visited: visitedNodes(n, s, res.Edges),
					}}
					opts.Counters.Collected.Inc()
					// CAS the global minimum down; each retry observes a
					// strictly smaller cur, so the loop is bounded.
					for cur := minFail.Load(); idx < cur; cur = minFail.Load() {
						if minFail.CompareAndSwap(cur, idx) {
							break
						}
					}
					return false
				}
				p.traces += scenTraces
				return true
			})
		}(w)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	rep := &Report{K: k, Resilient: true}
	fail := minFail.Load()
	if fail == noFail {
		for i := range parts {
			rep.Scenarios += parts[i].scenarios
			rep.Traces += parts[i].traces
		}
		opts.Counters.Scenarios.Add(int64(rep.Scenarios))
		opts.Counters.Traces.Add(int64(rep.Traces))
		return rep, nil
	}

	var winner *candidate
	for i := range parts {
		// The worker owning scenario `fail` stored it before lowering
		// minFail, so the winner always exists.
		if c := parts[i].cand; c != nil && c.idx == fail {
			winner = c
		}
	}
	rep.Resilient = false
	rep.Scenarios = int(fail) + 1
	// Every scenario before the first failing one was fully delivered: its
	// trace count is the number of sources still connected to the
	// destination, which reachability gives without re-tracing.
	prefix := 0
	idx := int64(-1)
	n.ForEachScenario(k, func(F network.EdgeSet) bool {
		idx++
		if idx >= fail {
			return false
		}
		reach := n.ReachableWithout(dest, F)
		for _, s := range n.Nodes() {
			if s != dest && reach[s] {
				prefix++
			}
		}
		return true
	})
	rep.Traces = prefix + winner.traces
	rep.record(winner.f, opts)
	opts.Counters.Scenarios.Add(int64(rep.Scenarios))
	opts.Counters.Traces.Add(int64(rep.Traces))
	return rep, nil
}

// MaxResilience returns the largest k <= limit for which r is perfectly
// k-resilient, checking k = 0, 1, ... in turn. It returns -1 when even k=0
// fails (the routing does not deliver on the intact network).
func MaxResilience(ctx context.Context, r *routing.Routing, limit int) (int, error) {
	best := -1
	for k := 0; k <= limit; k++ {
		rep, err := Check(ctx, r, k, Options{StopAtFirst: true})
		if err != nil {
			return best, err
		}
		if !rep.Resilient {
			return best, nil
		}
		best = k
	}
	return best, nil
}
