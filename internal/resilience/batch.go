package resilience

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"syrep/internal/bdd"
	"syrep/internal/cache"
	"syrep/internal/network"
	"syrep/internal/obs"
	"syrep/internal/routing"
)

// All-destinations batch synthesis. A deployed FRR network needs a
// forwarding table for every destination, not one; SynthesizeAll fans the
// per-destination pipeline out across a bounded worker pool while sharing
// everything that does not depend on the destination — the chain-reduction
// candidate set (reduce.Shared) and warm BDD arenas (bdd.ManagerPool) — and
// consulting the cross-request cache per destination. One destination's
// failure is that destination's typed error, never the batch's: the batch
// only fails as a whole on cancellation, and then still returns every result
// that landed before the cut.

// DestResult is one destination's outcome within a batch.
type DestResult struct {
	// Dest is the destination node; Name is its stable name.
	Dest network.NodeID `json:"-"`
	Name string         `json:"dest"`
	// Routing is the synthesized table: fully resilient on success, a
	// salvaged checkpoint on a Partial failure, nil otherwise.
	Routing *routing.Routing `json:"-"`
	// Report is the supervisor's run report (nil when served from cache).
	Report *Report `json:"-"`
	// Resilient reports a clean pipeline success for this destination.
	Resilient bool `json:"resilient"`
	// Cached: served straight from the cache, no pipeline run.
	Cached bool `json:"cached,omitempty"`
	// Deduped: a concurrent identical computation was in flight; this
	// result shares it (singleflight).
	Deduped bool `json:"deduped,omitempty"`
	// Err is the destination's terminal error (nil on success).
	Err error `json:"-"`
}

// BatchOptions configures SynthesizeAll.
type BatchOptions struct {
	// Run configures each per-destination run. Run.Shared is filled in by
	// the batch when nil, so every run reuses the same reduction candidates
	// and manager pool.
	Run Options
	// Dests selects the destinations (nil = every node of the network).
	Dests []network.NodeID
	// Workers bounds concurrently running destinations (default GOMAXPROCS).
	Workers int
	// Cache, when non-nil, serves repeat destinations without a run,
	// collapses concurrent identical work via singleflight, and receives
	// clean resilient results.
	Cache *cache.Cache
	// OnResult streams each destination's result the moment it lands, in
	// completion order; calls are serialized. The Routing inside is owned by
	// the batch — clone it to retain it past the callback.
	OnResult func(DestResult)
	// Obs, when non-nil, receives the syrep_batch_* counters. Per-run
	// observation is configured separately via Run.Obs.
	Obs *obs.Observer
}

// BatchReport summarises a batch.
type BatchReport struct {
	// Dests is the number of destinations requested; Attempted is how many
	// ran before a cancellation cut the batch short.
	Dests     int `json:"dests"`
	Attempted int `json:"attempted"`
	// Resilient / Degraded / Failed partition the attempted destinations:
	// clean successes, successes that gave something up (see
	// Report.Degraded), and typed per-destination failures.
	Resilient int `json:"resilient"`
	Degraded  int `json:"degraded"`
	Failed    int `json:"failed"`
	// CacheHits and Dedups count destinations served without a fresh run.
	CacheHits int `json:"cacheHits"`
	Dedups    int `json:"dedups"`
	// Elapsed is the batch wall-clock time.
	Elapsed time.Duration `json:"elapsedNs"`
	// Pool reports BDD manager reuse across the batch.
	Pool bdd.PoolStats `json:"pool"`
}

// SynthesizeAll synthesizes a table for every requested destination of net,
// fanning out across a bounded worker pool. Results are returned sorted in
// Dests order (requested order, or node-id order when Dests is nil) and
// streamed to opts.OnResult in completion order as they land.
//
// Per-destination failures are reported in their DestResult and never fail
// the batch. The returned error is non-nil only for invalid input or when
// ctx was cancelled mid-batch — and then the results that completed before
// the cut are still returned alongside it.
func SynthesizeAll(ctx context.Context, net *network.Network, k int, opts BatchOptions) ([]DestResult, *BatchReport, error) {
	start := time.Now()
	if net == nil {
		return nil, nil, fmt.Errorf("resilience: nil network")
	}
	if k < 0 {
		return nil, nil, fmt.Errorf("resilience: negative resilience level %d", k)
	}
	dests := opts.Dests
	if dests == nil {
		dests = make([]network.NodeID, net.NumNodes())
		for i := range dests {
			dests[i] = network.NodeID(i)
		}
	}
	for _, d := range dests {
		if int(d) < 0 || int(d) >= net.NumNodes() {
			return nil, nil, fmt.Errorf("resilience: destination %d out of range", d)
		}
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(dests) {
		workers = len(dests)
	}

	run := opts.Run
	if run.Shared == nil {
		defaulted := run.withDefaults()
		sh, err := NewSharedResources(net, defaulted.Reduction, run.Encode.NodeLimit)
		if err != nil {
			return nil, nil, err
		}
		run.Shared = sh
	}

	b := &batch{
		ctx:  ctx,
		net:  net,
		k:    k,
		opts: opts,
		run:  run,
		rep:  &BatchReport{Dests: len(dests)},
		got:  make([]*DestResult, len(dests)),
	}
	if o := opts.Obs; o != nil {
		o.Counter(obs.BatchRuns).Inc()
		b.cDests = o.Counter(obs.BatchDests)
		b.cResilient = o.Counter(obs.BatchResilient)
		b.cDegraded = o.Counter(obs.BatchDegraded)
		b.cFailed = o.Counter(obs.BatchFailed)
		b.cCacheHits = o.Counter(obs.BatchCacheHits)
		b.cDedups = o.Counter(obs.BatchDedups)
		b.gInflight = o.Gauge(obs.BatchInflight)
	}

	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(dests) || ctx.Err() != nil {
					return
				}
				b.one(i, dests[i])
			}
		}()
	}
	wg.Wait()

	// Compact in Dests order; cancellation leaves unattempted slots nil.
	results := make([]DestResult, 0, len(dests))
	for _, r := range b.got {
		if r != nil {
			results = append(results, *r)
		}
	}
	b.rep.Attempted = len(results)
	b.rep.Elapsed = time.Since(start)
	if run.Shared.Pool != nil {
		b.rep.Pool = run.Shared.Pool.Stats()
	}
	if err := ctx.Err(); err != nil {
		return results, b.rep, context.Cause(ctx)
	}
	return results, b.rep, nil
}

// batch is the shared state of one SynthesizeAll invocation.
type batch struct {
	ctx  context.Context
	net  *network.Network
	k    int
	opts BatchOptions
	run  Options
	rep  *BatchReport

	mu       sync.Mutex // guards got, rep tallies, OnResult serialization
	got      []*DestResult
	inflight atomic.Int64

	cDests, cResilient, cDegraded *obs.Counter
	cFailed, cCacheHits, cDedups  *obs.Counter
	gInflight                     *obs.Gauge
}

// one settles destination slot i.
func (b *batch) one(i int, dest network.NodeID) {
	b.gInflight.Set(b.inflight.Add(1))
	defer func() { b.gInflight.Set(b.inflight.Add(-1)) }()
	res := b.solve(dest)
	b.record(i, res)
}

// record tallies and streams a landed result. The lock also serializes
// OnResult, per its contract.
func (b *batch) record(i int, res DestResult) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.got[i] = &res
	b.cDests.Inc()
	switch {
	case res.Err != nil:
		b.rep.Failed++
		b.cFailed.Inc()
	case res.Report != nil && res.Report.Degraded():
		b.rep.Degraded++
		b.cDegraded.Inc()
	default:
		b.rep.Resilient++
		b.cResilient.Inc()
	}
	if res.Cached {
		b.rep.CacheHits++
		b.cCacheHits.Inc()
	}
	if res.Deduped {
		b.rep.Dedups++
		b.cDedups.Inc()
	}
	if b.opts.OnResult != nil {
		b.opts.OnResult(res)
	}
}

// solve produces one destination's result: fault hook, cache lookup,
// singleflight, pipeline run.
func (b *batch) solve(dest network.NodeID) DestResult {
	res := DestResult{Dest: dest, Name: b.net.NodeName(dest)}
	// The batch-fanout fault point: an injected error here poisons exactly
	// this destination and must surface as its typed per-destination error.
	if h := b.run.Hook; h != nil {
		if err := h.At(StageBatchFanout); err != nil {
			res.Err = err
			return res
		}
	}
	c := b.opts.Cache
	if c == nil {
		return b.runDest(res)
	}
	key := CacheKey(b.net, dest, b.k, b.run.Strategy)
	if e, ok := c.Get(key); ok {
		res.Routing, res.Resilient, res.Cached = e.Routing, e.Resilient, true
		return res
	}
	v, shared, err := c.Do(b.ctx, key, func() (any, error) {
		out := b.runDest(res)
		return out, out.Err
	})
	if err != nil && v == nil {
		// Waiter-side cancellation: the flight is still running but this
		// destination's budget is gone.
		res.Err = err
		return res
	}
	out, ok := v.(DestResult)
	if !ok {
		// A foreign flight on the same key (e.g. the server's own
		// singleflight) produced an incompatible value; run standalone
		// rather than share it.
		return b.runDest(res)
	}
	if shared {
		out.Deduped = true
		if out.Routing != nil {
			out.Routing = out.Routing.Clone()
		}
		return out
	}
	if out.Err == nil && out.Resilient && out.Routing != nil {
		c.Put(key, &cache.Entry{Net: b.net, Routing: out.Routing, Resilient: true})
	}
	return out
}

// runDest runs the full per-destination pipeline with the batch's shared
// resources threaded in.
func (b *batch) runDest(res DestResult) DestResult {
	ro := b.run
	r, rep, err := Synthesize(b.ctx, b.net, res.Dest, b.k, ro)
	res.Report = rep
	if err != nil {
		res.Err = err
		if p, ok := AsPartial(err); ok {
			// Salvage travels with the per-destination result, like the
			// single-destination API.
			res.Routing = p.Routing
		}
		return res
	}
	// A clean return means the final verification passed (modulo
	// SkipFinalVerify), even when the report records degradations along the
	// way — same contract as the single-destination API.
	res.Routing = r
	res.Resilient = true
	return res
}
