// Package synth provides full synthesis of perfectly k-resilient skipping
// routings from scratch: every (in-edge, node) pair is a synthesis hole and
// the BDD engine fills the entire table. This mirrors the SyPer approach of
// [26] that the SyRep paper uses as its baseline — correct but slow, because
// the BDD ranges over the parameters of every routing entry at once.
package synth

import (
	"context"
	"fmt"

	"syrep/internal/encode"
	"syrep/internal/network"
	"syrep/internal/routing"
)

// Baseline synthesises a perfectly k-resilient routing for dest from
// scratch, with priority lists of length k+1 (clamped to node degree). It
// returns encode.ErrUnrepairable when no perfectly k-resilient routing with
// such lists exists. Like SyPer it conjoins every failure scenario
// (encode.SolveEager) rather than only the refuting ones.
func Baseline(ctx context.Context, net *network.Network, dest network.NodeID, k int, opts encode.Options) (*encode.Solution, error) {
	empty, err := Holes(net, dest, k)
	if err != nil {
		return nil, err
	}
	return encode.SolveEager(ctx, empty, k, opts)
}

// Holes returns an all-holes routing for dest with list length k+1, the
// input shape consumed by full synthesis.
func Holes(net *network.Network, dest network.NodeID, k int) (*routing.Routing, error) {
	if k < 0 {
		return nil, fmt.Errorf("synth: negative resilience level %d", k)
	}
	r := routing.New(net, dest)
	for _, key := range r.AllKeys() {
		if err := r.PunchHole(key.In, key.At, k+1); err != nil {
			return nil, fmt.Errorf("synth: %w", err)
		}
	}
	return r, nil
}
