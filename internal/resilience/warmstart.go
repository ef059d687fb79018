package resilience

import (
	"context"
	"errors"
	"fmt"
	"time"

	"syrep/internal/bdd"
	"syrep/internal/cache"
	"syrep/internal/encode"
	"syrep/internal/network"
	"syrep/internal/obs"
	"syrep/internal/routing"
	"syrep/internal/verify"
)

// WarmStart fortifies a seed routing to perfect k-resilience, running only
// the endgame of the pipeline — hole fill (or verify+repair) plus the final
// safety-net check — and skipping reduction, heuristic generation and
// from-scratch synthesis entirely. This is the paper's Fig. 6 shortcut for
// dynamic repair: the seed is typically a previously synthesized table
// adapted onto a changed topology, with the entries invalidated by failed
// edges punched as holes (see the cache package's Adapt).
//
// A seed with holes goes straight to the BDD hole-fill under the node-limit
// escalation ladder; the formula constrains the whole table, so a
// successful fill is perfectly k-resilient by construction and only the
// cheap StopAtFirst final verification remains. ErrUnsolvable is returned
// when the fixed entries admit no k-resilient completion — callers fall
// back to cold synthesis. A hole-free seed is verified first and repaired
// only if needed.
//
// Like Synthesize, WarmStart is an anytime computation: on timeout or
// memout with a checkpointed routing in hand the error is a *Partial, and
// escaped panics become typed errors. The returned report has WarmStart
// set and counts the holes filled.
func WarmStart(ctx context.Context, seed *routing.Routing, k int, opts Options) (r *routing.Routing, rep *Report, err error) {
	opts = opts.withDefaults()
	if seed == nil {
		return nil, nil, errors.New("resilience: nil seed routing")
	}
	if k < 0 {
		return nil, nil, fmt.Errorf("resilience: negative resilience level %d", k)
	}
	if opts.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.Timeout)
		defer cancel()
	}
	if opts.Obs != nil {
		opts.Encode.Counters = opts.Obs.BDD()
	}
	ctx, endTotal := opts.Obs.StartStage(ctx, obs.SpanTotal)
	defer endTotal()
	start := time.Now()
	rep = &Report{Strategy: opts.Strategy, K: k, WarmStart: true, HolesFilled: seed.NumHoles()}
	s := &run{ctx: ctx, net: seed.Network(), dest: seed.Dest(), k: k, opts: opts, rep: rep}
	defer func() {
		rep.Elapsed = time.Since(start)
		if v := recover(); v != nil {
			r = nil
			err = recoveredError(s.stage, v)
		}
	}()
	r, err = s.warmStart(seed)
	return r, rep, err
}

// CacheKey is the content-addressed cache key of a synthesis result:
// topology fingerprint, destination name, resilience level and strategy,
// where the zero strategy means the Combined default. The server, the batch
// and the controller all key through it, so their results share cache
// lines.
func CacheKey(net *network.Network, dest network.NodeID, k int, strategy Strategy) cache.Key {
	if strategy == 0 {
		strategy = Combined
	}
	return cache.Key{
		Topo:     net.Fingerprint(),
		Dest:     net.NodeName(dest),
		K:        k,
		Strategy: strategy.String(),
	}
}

// ErrNoSeed is WarmRepair's miss when the cache holds no resilient table
// for the destination within the edge-diff bound.
var ErrNoSeed = errors.New("resilience: no cached seed within the edge-diff bound")

// WarmRepair is the dynamic-repair fast path: take the nearest resilient
// table cached for dest within maxDiff edges of net, adapt it onto net
// (entries over failed edges become holes, see cache.Adapt) and run
// WarmStart on that seed. A success counts one warm hit in c, is stored
// under CacheKey for the next delta, and returns a nil error. Anything else
// counts one warm miss and returns its cause — ErrNoSeed, the Adapt error,
// or WarmStart's error such as ErrUnsolvable or a budget expiry — and the
// caller falls back to cold synthesis. The report is WarmStart's whenever it
// ran.
func WarmRepair(ctx context.Context, c *cache.Cache, net *network.Network, dest network.NodeID, k, maxDiff int, opts Options) (r *routing.Routing, rep *Report, err error) {
	hit := false
	defer func() {
		// Deferred so that a panic escaping to the caller's fence still
		// counts its miss.
		if hit {
			c.NoteWarmHit()
		} else {
			c.NoteWarmMiss()
		}
	}()
	ent, _, found := c.Nearest(net, net.NodeName(dest), k, maxDiff)
	if !found {
		return nil, nil, ErrNoSeed
	}
	seed, err := cache.Adapt(ent, net, k)
	if err != nil {
		return nil, nil, err
	}
	r, rep, err = WarmStart(ctx, seed, k, opts)
	if err != nil {
		return nil, rep, err
	}
	hit = true
	c.Put(CacheKey(net, dest, k, opts.Strategy), &cache.Entry{Net: net, Routing: r, Resilient: true})
	return r, rep, nil
}

func (s *run) warmStart(seed *routing.Routing) (*routing.Routing, error) {
	if seed.NumHoles() > 0 {
		sol, attempts, err := s.ladderFill(seed)
		if err != nil {
			if s.classify(err) == failUnrepairable {
				// The surviving entries pin the table into a corner with no
				// k-resilient completion; only cold synthesis can help.
				return nil, fmt.Errorf("%w: %v", ErrUnsolvable, err)
			}
			return nil, s.fail(StageRepair, err, attempts)
		}
		s.cp = &checkpoint{routing: sol.Routing, verified: true}
		return s.finalVerify(sol.Routing)
	}

	// Hole-free seed: the adapted table may already be resilient (the failed
	// edges never carried traffic); price it before reaching for the engine.
	err := s.at(StageVerify)
	var vrep *verify.Report
	if err == nil {
		err = s.spanned(StageVerify, func() (e error) {
			vrep, e = s.verifyCheck(s.ctx, seed, s.verifyOpts())
			return
		})
	}
	if err != nil {
		return nil, s.fail(StageVerify, err, 0)
	}
	if vrep.Resilient {
		// The pass above fully verified the seed on the target network; a
		// final-verify would repeat the identical scan. The safety net only
		// guards tables a BDD stage produced, and none ran here.
		s.cp = &checkpoint{routing: seed, verified: true}
		return seed, nil
	}
	s.cp = &checkpoint{routing: seed, residual: vrep.Failing, verified: true}

	out, attempts, err := s.ladderRepair(s.ctx, StageRepair, seed, vrep, true)
	if err != nil {
		if s.classify(err) == failUnrepairable {
			return nil, fmt.Errorf("%w: %v", ErrUnsolvable, err)
		}
		return nil, s.fail(StageRepair, err, attempts)
	}
	s.cp = &checkpoint{routing: out.Routing, verified: true}
	return s.finalVerify(out.Routing)
}

// ladderFill is the warm-start hole fill: encode.Solve on the holey seed
// under the same node-limit escalation as ladderSynth (configured limits,
// then 4× with reordering). The formula spans the whole table, so success
// certifies k-resilience of every entry, not just the filled ones.
func (s *run) ladderFill(seed *routing.Routing) (*encode.Solution, int, error) {
	endSpan := s.span(StageRepair)
	defer endSpan()
	enc := s.opts.Encode
	maxAttempts := s.opts.MaxAttempts
	if maxAttempts > 2 {
		maxAttempts = 2
	}
	attempts := 0
	for {
		attempts++
		s.rep.SolveAttempts++
		err := s.at(StageRepair)
		var sol *encode.Solution
		if err == nil {
			sol, err = encode.Solve(s.ctx, seed, s.k, enc)
		}
		if err == nil {
			return sol, attempts, nil
		}
		if !errors.Is(err, bdd.ErrNodeLimit) || s.ctx.Err() != nil || attempts >= maxAttempts {
			return nil, attempts, err
		}
		if enc.NodeLimit == 0 {
			enc.NodeLimit = encode.DefaultNodeLimit
		}
		enc.NodeLimit *= 4
		enc.DisableReorder = false
		s.degrade(StageRepair, err, attempts,
			fmt.Sprintf("retrying warm-start fill with node limit %d and reordering enabled", enc.NodeLimit))
	}
}
