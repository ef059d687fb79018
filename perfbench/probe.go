package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"syrep/internal/obs"
	"syrep/internal/resilience"
	"syrep/internal/routing"
	"syrep/internal/verify"
)

// probe collects one traced round's per-layer evidence from outside the
// program: an obs.Observer handed to the layers' public entry points, a
// timing verify.Backend, and the Report/BatchReport fields the entry
// points return. A nil *probe means the round is untraced; every method is
// then a no-op and the layers get nil observers and the default verifier.
type probe struct {
	obs    *obs.Observer
	verify *timedVerify

	mu        sync.Mutex
	reports   int
	heurRes   int
	removed   int
	degrades  int
	attempts  int
	overrun   time.Duration
	poolGets  int64
	poolReuse int64
	destBusy  time.Duration
	capacity  time.Duration
}

func newProbe() *probe {
	return &probe{obs: obs.New(nil), verify: &timedVerify{}}
}

// observer returns the observer to pass to the layers (nil when untraced).
func (p *probe) observer() *obs.Observer {
	if p == nil {
		return nil
	}
	return p.obs
}

// backend returns the verify backend to pass to the layers (nil, meaning
// the brute-force default, when untraced).
func (p *probe) backend() verify.Backend {
	if p == nil {
		return nil
	}
	return p.verify
}

// report folds one synthesis Report. limit is the run's timeout; wall time
// past it is the supervisor's deadline overrun.
func (p *probe) report(rep *resilience.Report, limit time.Duration) {
	if p == nil || rep == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.reports++
	if rep.HeuristicWasResilient {
		p.heurRes++
	}
	p.removed += rep.NodesRemoved
	p.degrades += len(rep.Degradations)
	p.attempts += rep.SolveAttempts
	if limit > 0 && rep.Elapsed > limit {
		p.overrun += rep.Elapsed - limit
	}
}

// batch folds one SynthesizeAll BatchReport and the per-destination solve
// times it covered.
func (p *probe) batch(rep *resilience.BatchReport, workers int, destBusy time.Duration) {
	if p == nil || rep == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.poolGets += rep.Pool.Gets
	p.poolReuse += rep.Pool.Reuses
	p.destBusy += destBusy
	p.capacity += time.Duration(workers) * rep.Elapsed
}

// layerMetric names one per-layer metric and its unit.
type layerMetric struct{ name, unit string }

// perLayerNames lists every per-layer metric a traced run prints, except
// trace.overhead_ratio, which compares rounds rather than measuring one.
// Counts and busy times are per round.
func perLayerNames() []layerMetric {
	return []layerMetric{
		{"bdd.mk_calls", "count/round"},
		{"bdd.nodes_allocated", "count/round"},
		{"bdd.cache_hit_ratio", "ratio"},
		{"bdd.gc_runs", "count/round"},
		{"bdd.nodes_freed", "count/round"},
		{"bdd.reorders", "count/round"},
		{"bdd.peak_nodes", "nodes"},
		{"repair.busy_s", "s/round"},
		{"repair.iterations", "count/round"},
		{"repair.holes_punched", "count/round"},
		{"verify.busy_s", "s/round"},
		{"verify.calls", "count/round"},
		{"verify.scenarios", "count/round"},
		{"verify.traces", "count/round"},
		{"heuristic.busy_s", "s/round"},
		{"heuristic.resilient_ratio", "ratio"},
		{"reduce.busy_s", "s/round"},
		{"reduce.nodes_removed", "count/round"},
		{"resilience.deadline_overrun_s", "s/round"},
		{"resilience.degradations", "count/round"},
		{"resilience.solve_attempts", "count/round"},
		{"batch.pool_reuse_ratio", "ratio"},
		{"batch.worker_busy_ratio", "ratio"},
		{"cache.warm_hit_ratio", "ratio"},
		{"cache.hits", "count/round"},
		{"controller.repair_s", "s/round"},
		{"controller.warm_repairs", "count/round"},
		{"controller.cold_syntheses", "count/round"},
		{"controller.degraded_tables", "count/round"},
		{"controller.pushes", "count/round"},
	}
}

// metrics renders the round's evidence under the perLayerNames names.
func (p *probe) metrics() map[string]float64 {
	s := p.obs.Snapshot()
	c := func(name string) float64 { return float64(s.Counter(name)) }
	sec := func(stages ...resilience.Stage) float64 {
		var d time.Duration
		for _, st := range stages {
			d += s.StageDuration(string(st))
		}
		return d.Seconds()
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return map[string]float64{
		"bdd.mk_calls":        c(obs.BDDMkCalls),
		"bdd.nodes_allocated": c(obs.BDDNodesAllocated),
		"bdd.cache_hit_ratio": ratio(c(obs.BDDCacheHits), c(obs.BDDCacheHits)+c(obs.BDDCacheMisses)),
		"bdd.gc_runs":         c(obs.BDDGCRuns),
		"bdd.nodes_freed":     c(obs.BDDNodesFreed),
		"bdd.reorders":        c(obs.BDDReorders),
		"bdd.peak_nodes":      float64(s.Gauge(obs.BDDPeakNodes)),

		"repair.busy_s":        sec(resilience.StageRepair, resilience.StageRepairReduced, resilience.StageSynth),
		"repair.iterations":    c(obs.RepairIterations),
		"repair.holes_punched": c(obs.RepairHolesPunched),

		"verify.busy_s":    time.Duration(p.verify.busy.Load()).Seconds(),
		"verify.calls":     float64(p.verify.calls.Load()),
		"verify.scenarios": c(obs.VerifyScenarios),
		"verify.traces":    c(obs.VerifyTraces),

		"heuristic.busy_s":          sec(resilience.StageHeuristic),
		"heuristic.resilient_ratio": ratio(float64(p.heurRes), float64(p.reports)),

		"reduce.busy_s":        sec(resilience.StageReduce),
		"reduce.nodes_removed": float64(p.removed),

		"resilience.deadline_overrun_s": p.overrun.Seconds(),
		"resilience.degradations":       float64(p.degrades),
		"resilience.solve_attempts":     float64(p.attempts),

		"batch.pool_reuse_ratio":  ratio(float64(p.poolReuse), float64(p.poolGets)),
		"batch.worker_busy_ratio": ratio(p.destBusy.Seconds(), p.capacity.Seconds()),

		"cache.warm_hit_ratio": ratio(c(obs.CacheWarmHits), c(obs.CacheWarmHits)+c(obs.CacheWarmMisses)),
		"cache.hits":           c(obs.CacheHits),

		"controller.repair_s":        sec(resilience.StageCtlRepair),
		"controller.warm_repairs":    c(obs.CtlWarmRepairs),
		"controller.cold_syntheses":  c(obs.CtlColdSynths),
		"controller.degraded_tables": c(obs.CtlDegraded),
		"controller.pushes":          c(obs.CtlPushes),
	}
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// timedVerify is a verify.Backend that runs the brute-force verify.Check
// and accumulates its call count and busy time. It is what the layers use
// for their verification passes in a traced round.
type timedVerify struct {
	calls atomic.Int64
	busy  atomic.Int64 // nanoseconds
}

func (t *timedVerify) Name() string { return "timed-brute-force" }

func (t *timedVerify) Check(ctx context.Context, r *routing.Routing, k int, opts verify.Options) (*verify.Report, error) {
	start := time.Now()
	rep, err := verify.Check(ctx, r, k, opts)
	t.busy.Add(int64(time.Since(start)))
	t.calls.Add(1)
	return rep, err
}
