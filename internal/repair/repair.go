// Package repair implements SyRep's verify-and-repair method (Section III):
// verify a routing brute-force, mark the entries that fired along failing
// deliveries as suspicious, remove them (punching holes), and let the BDD
// engine synthesise replacements that make the routing perfectly
// k-resilient.
//
// Two removal strategies are provided. RemoveAll punches every suspicious
// entry at once — simple and usually sufficient. Gradual first punches a
// greedy hitting set (at least one firing entry per failing delivery, as the
// paper requires), and widens to the full suspicious set only when the small
// hole set is unrepairable; this keeps the BDD variable count down.
package repair

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"syrep/internal/encode"
	"syrep/internal/network"
	"syrep/internal/obs"
	"syrep/internal/routing"
	"syrep/internal/verify"
)

// ErrUnrepairable is reported when no hole assignment over the suspicious
// entries achieves k-resilience. Per the paper the method is incomplete:
// shadowed ill-defined entries (e.g. a list (e, e') whose e' can never fire)
// can hide behind entries that are never marked suspicious.
var ErrUnrepairable = errors.New("repair: routing cannot be repaired by replacing suspicious entries")

// Strategy selects the suspicious-entry removal policy.
type Strategy int

const (
	// RemoveAll punches every suspicious entry at once (paper Sec. III-C,
	// default behaviour).
	RemoveAll Strategy = iota + 1
	// Gradual punches a greedy hitting set of firing entries first and
	// widens to the full suspicious set only on failure.
	Gradual
)

// String returns the strategy name.
func (s Strategy) String() string {
	switch s {
	case RemoveAll:
		return "remove-all"
	case Gradual:
		return "gradual"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Options tunes a repair run.
type Options struct {
	// Strategy defaults to RemoveAll.
	Strategy Strategy
	// Escalate makes repair complete: when the suspicious entries alone are
	// unrepairable (the paper's Section III-C incompleteness), the hole set
	// widens to every entry at the nodes visited by failing traces, and
	// finally to every entry of the routing (full synthesis). The paper's
	// repair corresponds to Escalate == false.
	Escalate bool
	// Encode tunes the BDD engine.
	Encode encode.Options
	// Verify tunes the verification passes. Prune is always enabled for the
	// internal passes (subsumed failing deliveries add no information).
	Verify verify.Options
	// Report, when non-nil, is a verification report for the input routing
	// at the requested k, produced with Prune enabled. Repair then skips its
	// own initial verification pass — the resilience supervisor uses this to
	// avoid verifying the same routing twice.
	Report *verify.Report
	// Counters, when non-nil, receives the repair counter stream: one
	// iteration per hole-set solve attempted, the number of holes punched
	// across all attempts, and the check rounds and encoded scenarios of
	// the successful solve. Nil means unobserved.
	Counters *obs.RepairCounters
}

// noCounters is the shared no-op bundle substituted for a nil
// Options.Counters; its nil *obs.Counter fields make every Add a no-op.
var noCounters = &obs.RepairCounters{}

// Outcome reports a successful repair.
type Outcome struct {
	// Routing is perfectly k-resilient.
	Routing *routing.Routing
	// AlreadyResilient is true when the input needed no repair.
	AlreadyResilient bool
	// Suspicious is the number of entries marked suspicious by
	// verification.
	Suspicious int
	// Removed is the number of entries actually punched (== Suspicious for
	// RemoveAll; possibly fewer for Gradual).
	Removed int
	// Changed lists the entries whose priority list differs from the input
	// routing — the paper's "minimum invasive" metric.
	Changed []routing.Key
	// Widened reports that the Gradual strategy had to fall back to the
	// full suspicious set.
	Widened bool
	// EscalationLevel records how far the Escalate ladder climbed: 0 means
	// the suspicious set sufficed, 1 means all entries at visited nodes, 2
	// means full synthesis.
	EscalationLevel int
	// Solution carries the BDD engine statistics of the successful solve.
	Solution *encode.Solution
}

// Repair makes r perfectly k-resilient by replacing suspicious entries. The
// input routing is not modified; it must be hole-free.
func Repair(ctx context.Context, r *routing.Routing, k int, opts Options) (*Outcome, error) {
	if r.NumHoles() > 0 {
		return nil, fmt.Errorf("repair: input routing has %d unresolved holes", r.NumHoles())
	}
	if opts.Strategy == 0 {
		opts.Strategy = RemoveAll
	}
	vOpts := opts.Verify
	vOpts.Prune = true

	rep := opts.Report
	if rep == nil {
		var err error
		rep, err = verify.Check(ctx, r, k, vOpts)
		if err != nil {
			return nil, err
		}
	}
	if rep.Resilient {
		return &Outcome{Routing: r.Clone(), AlreadyResilient: true}, nil
	}
	suspicious := rep.Suspicious()

	counters := opts.Counters
	if counters == nil {
		counters = noCounters
	}
	tryHoles := func(holes []routing.Key) (*Outcome, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		counters.Iterations.Inc()
		counters.HolesPunched.Add(int64(len(holes)))
		punched := r.Clone()
		for _, key := range holes {
			if err := punched.PunchHole(key.In, key.At, k+1); err != nil {
				return nil, fmt.Errorf("repair: %w", err)
			}
		}
		sol, err := encode.Solve(ctx, punched, k, opts.Encode)
		if err != nil {
			return nil, err
		}
		counters.CheckRounds.Add(int64(sol.CheckRounds))
		counters.ScenariosEncoded.Add(int64(sol.ScenariosEncoded))
		return &Outcome{
			Routing:    sol.Routing,
			Suspicious: len(suspicious),
			Removed:    len(holes),
			Changed:    diffEntries(r, sol.Routing),
			Solution:   sol,
		}, nil
	}

	widened := false
	if opts.Strategy == Gradual {
		subset, err := hittingSet(ctx, rep)
		if err != nil {
			return nil, err
		}
		if len(subset) < len(suspicious) {
			out, err := tryHoles(subset)
			switch {
			case err == nil:
				return out, nil
			case errors.Is(err, encode.ErrUnrepairable):
				widened = true // widen to the full suspicious set below
			default:
				return nil, err
			}
		}
	}

	out, err := tryHoles(suspicious)
	switch {
	case err == nil:
		out.Widened = widened
		return out, nil
	case !errors.Is(err, encode.ErrUnrepairable):
		return nil, err
	case !opts.Escalate:
		return nil, ErrUnrepairable
	}

	// Escalation level 1: every entry at the nodes visited by failing
	// traces, capturing shadowed dropping/looping entries that never fire.
	level1 := visitedNodeEntries(r, rep)
	if len(level1) > len(suspicious) {
		out, err = tryHoles(level1)
		switch {
		case err == nil:
			out.EscalationLevel = 1
			return out, nil
		case !errors.Is(err, encode.ErrUnrepairable):
			return nil, err
		}
	}

	// Escalation level 2: full synthesis — complete by construction.
	out, err = tryHoles(r.AllKeys())
	if err != nil {
		if errors.Is(err, encode.ErrUnrepairable) {
			return nil, ErrUnrepairable // no k-resilient routing exists at all
		}
		return nil, err
	}
	out.EscalationLevel = 2
	return out, nil
}

// visitedNodeEntries collects every routing entry at a node some failing
// trace visited.
func visitedNodeEntries(r *routing.Routing, rep *verify.Report) []routing.Key {
	nodes := make(map[network.NodeID]bool)
	for _, f := range rep.Failing {
		for _, v := range f.Visited {
			nodes[v] = true
		}
	}
	var out []routing.Key
	for _, key := range r.AllKeys() {
		if nodes[key.At] {
			out = append(out, key)
		}
	}
	return out
}

// hittingSet greedily selects entries so that every failing delivery has at
// least one of its firing entries removed (the paper's necessary condition
// for repairability). The greedy loop runs one round per selected entry and
// polls ctx each round, so cancellation on a large failing set is prompt.
func hittingSet(ctx context.Context, rep *verify.Report) ([]routing.Key, error) {
	uncovered := make([]map[routing.Key]bool, 0, len(rep.Failing))
	for _, f := range rep.Failing {
		set := make(map[routing.Key]bool, len(f.Used))
		for _, k := range f.Used {
			set[k] = true
		}
		if len(set) > 0 {
			uncovered = append(uncovered, set)
		}
	}
	var out []routing.Key
	for len(uncovered) > 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		counts := make(map[routing.Key]int)
		for _, set := range uncovered {
			for k := range set {
				counts[k]++
			}
		}
		var best routing.Key
		bestCount := -1
		for k, c := range counts {
			if c > bestCount || (c == bestCount && keyLess(k, best)) {
				best = k
				bestCount = c
			}
		}
		out = append(out, best)
		next := uncovered[:0]
		for _, set := range uncovered {
			if !set[best] {
				next = append(next, set)
			}
		}
		uncovered = next
	}
	sortKeys(out)
	return out, nil
}

// diffEntries lists the keys whose priority list changed between a and b.
func diffEntries(a, b *routing.Routing) []routing.Key {
	var out []routing.Key
	for _, key := range b.Keys() {
		pb, _ := b.Get(key.In, key.At)
		pa, ok := a.Get(key.In, key.At)
		if !ok || !equalLists(pa, pb) {
			out = append(out, key)
		}
	}
	return out
}

func equalLists(a, b []network.EdgeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func keyLess(a, b routing.Key) bool {
	if a.At != b.At {
		return a.At < b.At
	}
	return a.In < b.In
}

func sortKeys(keys []routing.Key) {
	sort.Slice(keys, func(i, j int) bool { return keyLess(keys[i], keys[j]) })
}
