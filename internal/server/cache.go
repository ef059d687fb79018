package server

import (
	"context"

	"syrep/internal/cache"
	"syrep/internal/resilience"
)

// dispatch routes an accepted job through the synthesis cache when one is
// configured — lookup, singleflight dedup, and the warm-start repair fast
// path — and falls through to the plain execute loop otherwise.
func (s *Server) dispatch(j *job) *Response {
	if s.cfg.Cache == nil {
		return s.execute(j)
	}
	req := j.req
	switch {
	case req.Kind == KindSynthesize:
		return s.synthesizeCached(j)
	case req.Kind == KindRepair && req.Routing == nil:
		return s.repairWarm(j)
	default:
		// Repair of an explicit table: keyed by content we don't cache.
		return s.execute(j)
	}
}

// cacheable reports whether a response may be inserted: only clean, fully
// resilient pipeline results. Partial salvages, degraded tables, and
// failures must be recomputed, not replayed.
func cacheable(resp *Response) bool {
	return resp.Err == nil && resp.Resilient && !resp.Degraded && !resp.Partial && resp.Routing != nil
}

// synthesizeCached is the cached synthesis path: serve a hit without running
// the pipeline, collapse concurrent identical misses into one run via
// singleflight, and insert clean resilient results.
func (s *Server) synthesizeCached(j *job) *Response {
	c, req := s.cfg.Cache, j.req
	key := resilience.CacheKey(req.Net, req.Dest, req.K, req.Strategy)
	if e, ok := c.Get(key); ok {
		return &Response{Routing: e.Routing, Resilient: e.Resilient, Residual: e.Residual, Cached: true}
	}
	// The waiter's own budget still applies while it blocks on the leader.
	ctx, cancel := context.WithDeadline(s.baseCtx, j.deadline)
	defer cancel()
	v, shared, err := c.Do(ctx, key, func() (any, error) {
		return s.execute(j), nil
	})
	if err != nil {
		// Only waiters fail here (cancellation); the leader's errors travel
		// inside its Response.
		return &Response{Deduped: true, Err: err}
	}
	resp := v.(*Response)
	if shared {
		cp := *resp
		cp.Deduped = true
		if resp.Routing != nil {
			cp.Routing = resp.Routing.Clone()
		}
		return &cp
	}
	if cacheable(resp) {
		c.Put(key, &cache.Entry{Net: req.Net, Routing: resp.Routing, Resilient: true})
	}
	return resp
}

// repairWarm serves a dynamic-repair request (topology only, no table)
// through resilience.WarmRepair: adapt the nearest cached resilient base
// within the configured edge-diff onto the submitted topology and run only
// the warm-start endgame — fill, repair if needed, final verification. Any
// miss or failure falls back to cold synthesis, which itself goes through
// the cached-synthesis path so the fresh result is stored for the next
// delta.
func (s *Server) repairWarm(j *job) *Response {
	if resp := s.warmOnce(j); resp != nil {
		return resp
	}
	return s.synthesizeCached(j)
}

// warmOnce is one warm-start attempt; nil means "fall back to cold". The
// breaker and memory-pressure checks mirror execute's: a tripped breaker
// refuses the BDD fill the same way it refuses the full pipeline. A refused
// guard counts the warm miss the skipped WarmRepair would have. Only a hit
// records a breaker outcome; any miss releases the probe slot Allow may
// have reserved in half-open, so the cold fallback can take it and record
// its own.
func (s *Server) warmOnce(j *job) *Response {
	c, req := s.cfg.Cache, j.req
	remaining := j.deadline.Sub(s.cfg.now())
	if remaining > 0 && s.cfg.MemoryPressure != nil && s.cfg.MemoryPressure() {
		s.breaker.Trip(s.cfg.now())
		c.Purge()
	}
	if remaining <= 0 || !s.breaker.Allow(s.cfg.now()) {
		c.NoteWarmMiss()
		return nil
	}
	resp := s.fence(func() *Response {
		opts := resilience.Options{
			Strategy:      req.Strategy,
			Timeout:       remaining,
			Budgets:       req.Budgets,
			Obs:           s.cfg.Obs,
			Hook:          s.cfg.Hook,
			VerifyBackend: s.cfg.VerifyBackend,
		}
		r, rep, err := resilience.WarmRepair(s.baseCtx, c, req.Net, req.Dest, req.K, s.cfg.WarmStartMaxDiff, opts)
		if err != nil {
			// ErrNoSeed, an Adapt failure, ErrUnsolvable (pinned entries
			// admit no completion) or a budget expiry: let the cold path
			// settle the request.
			return &Response{Err: err}
		}
		return &Response{Routing: r, Resilient: true, Report: rep, WarmStart: true}
	})
	if resp.Err != nil {
		// A miss or a panic the fence caught; WarmRepair counted it.
		s.breaker.Release()
		return nil
	}
	s.breaker.Record(true, s.cfg.now())
	return resp
}

// CacheStats returns the synthesis cache's stats and whether one is
// configured.
func (s *Server) CacheStats() (cache.Stats, bool) {
	if s.cfg.Cache == nil {
		return cache.Stats{}, false
	}
	return s.cfg.Cache.Stats(), true
}
