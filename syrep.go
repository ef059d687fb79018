// Package syrep is a Go implementation of SyRep — efficient synthesis and
// repair of fast re-route (FRR) forwarding tables for resilient networks
// (Györgyi, Larsen, Schmid, Srba; DSN 2024).
//
// SyRep produces *perfectly k-resilient* skipping routings: priority lists
// of failover next-hops such that a packet reaches its destination under any
// combination of up to k link failures whenever the source remains
// physically connected. Its repair engine identifies the few misbehaving
// entries of an existing table and replaces them using a binary decision
// diagram (BDD) encoding; its synthesis pipeline combines structural
// network reductions, a fast routing heuristic, and that repair engine to
// outperform from-scratch BDD synthesis by orders of magnitude.
//
// # Quick start
//
//	b := syrep.NewBuilder("mynet")
//	a, c, d := b.AddNode("a"), b.AddNode("c"), b.AddNode("d")
//	b.AddEdge(a, c)
//	b.AddEdge(c, d)
//	b.AddEdge(d, a)
//	net, _ := b.Build()
//
//	r, report, err := syrep.Synthesize(ctx, net, d, 1, syrep.Options{})
//	// r is a perfectly 1-resilient routing toward d.
//
// To fortify an existing table instead, build a Routing with syrep.NewRouting
// and call syrep.Repair; only the entries involved in failing deliveries are
// replaced.
//
// This package is the only public facade; it re-exports the pipeline of
// internal/resilience, which supervises every run as an anytime
// computation. The internal packages expose the building blocks:
// internal/bdd (the ROBDD engine), internal/verify (brute-force resilience
// checking), internal/encode (the BDD encoding of Section III-A),
// internal/heuristic (Section IV-A), internal/reduce (Section IV-B), and
// internal/benchmark (the evaluation harness reproducing the paper's
// figures).
package syrep

import (
	"context"

	"syrep/internal/network"
	"syrep/internal/repair"
	"syrep/internal/resilience"
	"syrep/internal/routing"
	"syrep/internal/verify"
)

// Re-exported pipeline types. The aliases make the public surface a thin
// facade over the internal packages while keeping a single import for users.
type (
	// Network is an undirected multigraph with implicit loop-back edges.
	Network = network.Network
	// Builder constructs Networks.
	Builder = network.Builder
	// NodeID identifies a router.
	NodeID = network.NodeID
	// EdgeID identifies a link.
	EdgeID = network.EdgeID
	// EdgeSet is a failure scenario.
	EdgeSet = network.EdgeSet
	// Routing is a skipping routing toward a fixed destination.
	Routing = routing.Routing
	// Options configures Synthesize and Repair.
	Options = resilience.Options
	// Report describes a synthesis run.
	Report = resilience.Report
	// Strategy selects the synthesis method.
	Strategy = resilience.Strategy
	// RepairOutcome reports a repair, including the changed entries.
	RepairOutcome = repair.Outcome
	// VerifyReport is the result of a resilience check.
	VerifyReport = verify.Report
	// Partial is the anytime supervisor's salvage result: a run that hit its
	// deadline, a node limit, or an internal fault still returns the best
	// routing it had checkpointed, with the residual failing deliveries and a
	// Degradation report. Extract it from an error with AsPartial.
	Partial = resilience.Partial
)

// Synthesis strategies (paper Figure 7): the SyRep Combined pipeline is the
// default and headline method; Baseline mirrors the SyPer tool of [26].
const (
	Baseline      = resilience.Baseline
	HeuristicOnly = resilience.HeuristicOnly
	ReductionOnly = resilience.ReductionOnly
	Combined      = resilience.Combined
)

// ErrUnsolvable reports that the chosen strategy could not produce a
// perfectly k-resilient routing.
var ErrUnsolvable = resilience.ErrUnsolvable

// AsPartial extracts the anytime supervisor's typed partial result from an
// error returned by Synthesize or Repair: a degraded-but-usable routing plus
// the deliveries still failing. Callers can deploy the partial table
// immediately and re-run Repair on it later with a fresh budget.
func AsPartial(err error) (*Partial, bool) { return resilience.AsPartial(err) }

// NewBuilder starts constructing a network topology.
func NewBuilder(name string) *Builder { return network.NewBuilder(name) }

// NewRouting returns an empty skipping routing on net toward dest. Populate
// it with Set before verifying or repairing.
func NewRouting(net *Network, dest NodeID) *Routing { return routing.New(net, dest) }

// Synthesize produces a perfectly k-resilient routing toward dest.
func Synthesize(ctx context.Context, net *Network, dest NodeID, k int, opts Options) (*Routing, *Report, error) {
	return resilience.Synthesize(ctx, net, dest, k, opts)
}

// Repair makes an existing routing perfectly k-resilient by replacing only
// the entries that misbehave (the paper's minimally invasive use case).
func Repair(ctx context.Context, r *Routing, k int, opts Options) (*RepairOutcome, error) {
	return resilience.Repair(ctx, r, k, opts)
}

// Verify checks perfect k-resilience by brute force and reports the failing
// deliveries and suspicious entries when the routing is not resilient.
func Verify(ctx context.Context, r *Routing, k int) (*VerifyReport, error) {
	return verify.Check(ctx, r, k, verify.Options{})
}

// Resilient is a convenience wrapper reporting only the verdict. Callers
// running under a deadline should prefer ResilientCtx.
func Resilient(r *Routing, k int) bool { return verify.Resilient(r, k) }

// ResilientCtx is Resilient honouring ctx: a cancelled or expired context
// reports false.
func ResilientCtx(ctx context.Context, r *Routing, k int) bool {
	return verify.ResilientCtx(ctx, r, k)
}

// MaxResilience returns the largest k <= limit for which r is perfectly
// k-resilient (-1 when the routing fails even without failures).
func MaxResilience(ctx context.Context, r *Routing, limit int) (int, error) {
	return verify.MaxResilience(ctx, r, limit)
}
