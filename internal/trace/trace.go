// Package trace implements the network-trace semantics of Definition 3 in
// the SyRep paper: the deterministic path a packet follows under a skipping
// routing and a failure scenario, starting from a node's loop-back edge.
package trace

import (
	"fmt"
	"strings"

	"syrep/internal/network"
	"syrep/internal/routing"
)

// Outcome classifies how a trace ends.
type Outcome int

const (
	// Delivered means the packet reached the destination node.
	Delivered Outcome = iota + 1
	// Dropped means a node had an entry but every listed edge was failed,
	// or had no entry at all for the arriving packet (incomplete routing).
	Dropped
	// Looped means the packet revisited an (in-edge, node) state, i.e. the
	// routing has a forwarding loop under this failure scenario.
	Looped
	// HitHole means the trace reached a routing hole, so its behaviour is
	// undefined until synthesis fills the hole.
	HitHole
)

// String returns the outcome name.
func (o Outcome) String() string {
	switch o {
	case Delivered:
		return "delivered"
	case Dropped:
		return "dropped"
	case Looped:
		return "looped"
	case HitHole:
		return "hit-hole"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// Result describes a trace: the edges traversed (starting with the source's
// loop-back), the routing entries that fired, and the final outcome.
type Result struct {
	Outcome Outcome
	// Edges is the trace (e_0 = lb_source, e_1, ..., e_n).
	Edges []network.EdgeID
	// Used lists the routing entries that fired, in firing order. For a
	// looped trace the entries on the loop appear once.
	Used []routing.Key
}

// Delivered is a convenience accessor.
func (r Result) DeliveredOK() bool { return r.Outcome == Delivered }

// Format renders the trace like the paper: "(lb_v3, e6, e4, e3, ...)".
func (r Result) Format(n *network.Network) string {
	parts := make([]string, len(r.Edges))
	for i, e := range r.Edges {
		parts[i] = n.EdgeName(e)
	}
	suffix := ""
	if r.Outcome == Looped {
		suffix = ", ..."
	}
	return "(" + strings.Join(parts, ", ") + suffix + ") [" + r.Outcome.String() + "]"
}

// StepStatus classifies the result of a single forwarding decision.
type StepStatus int

const (
	// StepForwarded means an out-edge was selected.
	StepForwarded StepStatus = iota + 1
	// StepDropped means the entry exists but every listed edge failed, or
	// no entry exists for the arriving packet.
	StepDropped
	// StepHole means the entry is a synthesis hole with undefined behaviour.
	StepHole
)

// Step resolves a single forwarding decision: a packet that arrived at node
// at on edge in, under failure scenario failed. It returns the out-edge
// chosen by the skipping semantics (the first non-failed entry of the
// priority list).
func Step(r *routing.Routing, failed network.EdgeSet, in network.EdgeID, at network.NodeID) (network.EdgeID, StepStatus) {
	if r.IsHole(in, at) {
		return network.NoEdge, StepHole
	}
	prio, ok := r.Get(in, at)
	if !ok {
		return network.NoEdge, StepDropped
	}
	for _, e := range prio {
		if !failed.Has(e) {
			return e, StepForwarded
		}
	}
	return network.NoEdge, StepDropped
}

// Run follows the unique trace from source under routing r and failure
// scenario failed, per Definition 3. The trace starts with the loop-back
// edge lb_source. The destination absorbs packets. Loops are detected by
// revisiting an (in-edge, node) state, which is exact because forwarding is
// deterministic.
func Run(r *routing.Routing, failed network.EdgeSet, source network.NodeID) Result {
	n := r.Network()
	dest := r.Dest()
	res := Result{}

	in := n.Loopback(source)
	at := source
	res.Edges = append(res.Edges, in)
	if at == dest {
		res.Outcome = Delivered
		return res
	}

	seen := make(map[routing.Key]bool)
	for {
		key := routing.Key{In: in, At: at}
		if seen[key] {
			res.Outcome = Looped
			return res
		}
		seen[key] = true

		out, status := Step(r, failed, in, at)
		switch status {
		case StepDropped:
			res.Outcome = Dropped
			return res
		case StepHole:
			res.Outcome = HitHole
			return res
		}
		res.Used = append(res.Used, key)
		res.Edges = append(res.Edges, out)
		at = n.Other(out, at)
		in = out
		if at == dest {
			res.Outcome = Delivered
			return res
		}
	}
}

// Delivers reports whether the trace from source under routing r and
// failure scenario failed reaches the destination; it is equivalent to
// Run(r, failed, source).Outcome == Delivered but records nothing and
// allocates nothing. Forwarding is deterministic, so a walk that revisits
// an (in-edge, node) state loops forever. There are at most 2·NumEdges such
// states (each real edge entered from either end, plus the loop-backs), so
// a walk that has not delivered within that many steps has looped.
func Delivers(r *routing.Routing, failed network.EdgeSet, source network.NodeID) bool {
	n := r.Network()
	dest := r.Dest()
	in, at := n.Loopback(source), source
	for steps := 2 * n.NumEdges(); at != dest; steps-- {
		if steps < 0 {
			return false
		}
		out, status := Step(r, failed, in, at)
		if status != StepForwarded {
			return false
		}
		in, at = out, n.Other(out, at)
	}
	return true
}
