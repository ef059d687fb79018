// Package obs is SyRep's zero-dependency observability layer. It exists
// because the paper's headline claim is about *where the time goes*
// (verify/repair on a reduced network is orders of magnitude cheaper than
// full BDD synthesis, Fig. 6 and Tables I–II), and reproducing that claim at
// production scale requires structured measurements rather than ad-hoc
// prints.
//
// Three primitives:
//
//   - Stage spans: StartStage records a wall-clock span per pipeline stage
//     (reduce, heuristic, synth, verify, repair, expand, ...) and attaches
//     runtime/pprof goroutine labels, so CPU profiles attribute samples to
//     stages ("go tool pprof" tags view).
//
//   - Atomic counters and gauges: hot subsystems (the BDD engine, the
//     brute-force verifier, the repair loop) hold *Counter taps that stay
//     nil when no observer is attached. The disabled path is a single
//     predictable nil check — no allocation, no atomic, no branch
//     misprediction in steady state — so instrumentation stays compiled-in.
//
//   - Sinks and exporters: a Sink receives each completed span (the
//     in-memory Recorder retains them for --trace-out); Snapshot copies
//     every counter, gauge, and per-stage aggregate for an expvar-style
//     JSON dump or a Prometheus text exposition (export.go).
//
// An Observer is cheap (a few small maps) and is typically created per run,
// giving per-run isolation of counts; nothing in this package is global.
// All methods are safe on nil receivers so call sites need no guards.
package obs

import (
	"context"
	"math"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"
)

// StageLabel is the pprof label key under which stage spans tag goroutines.
// Profile samples taken while a stage runs carry {StageLabel: stageName}.
const StageLabel = "syrep_stage"

// Canonical metric names. Exporters emit them verbatim, so they double as
// the export schema (locked by the golden-file test).
const (
	BDDMkCalls        = "syrep_bdd_mk_calls_total"
	BDDNodesAllocated = "syrep_bdd_nodes_allocated_total"
	BDDCacheHits      = "syrep_bdd_cache_hits_total"
	BDDCacheMisses    = "syrep_bdd_cache_misses_total"
	BDDGCRuns         = "syrep_bdd_gc_runs_total"
	BDDNodesFreed     = "syrep_bdd_nodes_freed_total"
	BDDReorders       = "syrep_bdd_reorders_total"
	BDDPeakNodes      = "syrep_bdd_peak_nodes"

	// Time the BDD engine spends garbage-collecting and reordering
	// (reorder time includes the collections sifting runs), and the share
	// of computed-cache slots, in permille, filled by the last cache
	// generation to end (GC, reorder swap, cache resize or Manager reset).
	BDDGCNanos        = "syrep_bdd_gc_ns_total"
	BDDReorderNanos   = "syrep_bdd_reorder_ns_total"
	BDDCacheOccupancy = "syrep_bdd_cache_occupancy_permille"

	VerifyScenarios = "syrep_verify_scenarios_total"
	VerifyTraces    = "syrep_verify_traces_total"
	VerifyFailing   = "syrep_verify_failing_total"
	VerifyCollected = "syrep_verify_collected_total"

	// Verification-backend routing (verify.Router): checks dispatched to
	// each backend, fast-path fallbacks to the brute-force oracle, and the
	// poly checker's search effort (DFS states visited).
	VerifyBackendBrute = "syrep_verify_backend_brute_total"
	VerifyBackendPoly  = "syrep_verify_backend_poly_total"
	VerifyPolyFallback = "syrep_verify_poly_fallback_total"
	VerifyPolyVisits   = "syrep_verify_poly_visits_total"

	RepairIterations   = "syrep_repair_iterations_total"
	RepairHolesPunched = "syrep_repair_holes_punched_total"

	// Cross-request synthesis cache (internal/cache). Counters tick on
	// lookups; the gauges mirror the cache's current footprint.
	CacheHits       = "syrep_cache_hits_total"
	CacheMisses     = "syrep_cache_misses_total"
	CacheDedups     = "syrep_cache_dedup_total"
	CacheWarmHits   = "syrep_cache_warm_hits_total"
	CacheWarmMisses = "syrep_cache_warm_misses_total"
	CacheEvictions  = "syrep_cache_evictions_total"
	CacheEntries    = "syrep_cache_entries"
	CacheBytes      = "syrep_cache_bytes"

	// Churn controller (internal/controller). Counters tick per event /
	// repair / push; the epoch gauge mirrors the reconciler's topology
	// version; the latency histogram is the event→repaired-table SLO.
	CtlEvents       = "syrep_ctl_events_total"
	CtlCoalesced    = "syrep_ctl_coalesced_total"
	CtlOverflows    = "syrep_ctl_inbox_overflow_total"
	CtlApplied      = "syrep_ctl_applied_total"
	CtlNoops        = "syrep_ctl_noop_events_total"
	CtlRepairs      = "syrep_ctl_repairs_total"
	CtlWarmRepairs  = "syrep_ctl_warm_repairs_total"
	CtlColdSynths   = "syrep_ctl_cold_syntheses_total"
	CtlDegraded     = "syrep_ctl_degraded_tables_total"
	CtlStale        = "syrep_ctl_stale_repairs_total"
	CtlErrors       = "syrep_ctl_repair_errors_total"
	CtlPushes       = "syrep_ctl_pushes_total"
	CtlPushRetries  = "syrep_ctl_push_retries_total"
	CtlDeadLetters  = "syrep_ctl_dead_letters_total"
	CtlResyncs      = "syrep_ctl_resyncs_total"
	CtlEpoch        = "syrep_ctl_epoch"
	CtlInboxDepth   = "syrep_ctl_inbox_depth"
	CtlEventLatency = "syrep_ctl_event_latency_seconds"
	CtlDupSkips     = "syrep_ctl_duplicate_push_skips_total"

	// Write-ahead journal (internal/journal) and controller recovery.
	// Append/sync/rotation/snapshot counters size the write path;
	// recovered-records and torn-tails are the replay-side story a crash
	// postmortem reads first.
	JournalAppends          = "syrep_journal_appends_total"
	JournalSyncs            = "syrep_journal_syncs_total"
	JournalRotations        = "syrep_journal_rotations_total"
	JournalSnapshots        = "syrep_journal_snapshots_total"
	JournalCompactedFiles   = "syrep_journal_compacted_files_total"
	JournalRecoveredRecords = "syrep_journal_recovered_records_total"
	JournalTornTails        = "syrep_journal_torn_tail_total"
	JournalSnapshotsLoaded  = "syrep_journal_snapshots_loaded_total"
	JournalBadSnapshots     = "syrep_journal_bad_snapshots_total"

	// All-destinations batch synthesis (resilience.SynthesizeAll and the
	// /v1/synthesize-all endpoint). Runs counts batches; Dests counts
	// per-destination completions split into resilient/degraded/failed;
	// CacheHits and Dedups count destinations served from the cross-request
	// cache; Inflight gauges destinations currently being solved.
	BatchRuns      = "syrep_batch_runs_total"
	BatchDests     = "syrep_batch_dests_total"
	BatchResilient = "syrep_batch_resilient_total"
	BatchDegraded  = "syrep_batch_degraded_total"
	BatchFailed    = "syrep_batch_failed_total"
	BatchCacheHits = "syrep_batch_cache_hits_total"
	BatchDedups    = "syrep_batch_dedups_total"
	BatchInflight  = "syrep_batch_inflight"
)

// SpanTotal is the span name of the Synthesize/Repair entry points; stage
// spans nest inside it, so summing stage durations never exceeds the total.
const SpanTotal = "total"

// Counter is a monotonically increasing, goroutine-safe counter. The zero
// value is ready to use. A nil *Counter is a valid no-op target: hot paths
// hold *Counter taps that stay nil when no observer is attached, making the
// disabled path a single predictable nil check with zero allocations.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n. Safe on a nil receiver (no-op).
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one. Safe on a nil receiver (no-op).
func (c *Counter) Inc() { c.Add(1) }

// Load returns the current value (0 for a nil receiver).
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a goroutine-safe instantaneous value. The zero value is ready to
// use and a nil *Gauge is a valid no-op target, like Counter.
type Gauge struct{ v atomic.Int64 }

// Set stores n. Safe on a nil receiver (no-op).
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// SetMax raises the gauge to n when n exceeds the current value — the
// high-water-mark update used for peak BDD node counts. Safe on a nil
// receiver (no-op).
func (g *Gauge) SetMax(n int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if n <= cur || g.v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Load returns the current value (0 for a nil receiver).
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// DefaultBuckets are the histogram upper bounds (seconds) used when a
// histogram is created without explicit bounds: exponential from 100µs to
// ~100s, the range spanning warm-path repairs (sub-millisecond on small
// topologies) to cold BDD synthesis under load. An implicit +Inf bucket
// always follows the last bound.
var DefaultBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100,
}

// Histogram is a goroutine-safe latency histogram with fixed upper bounds.
// Like Counter and Gauge, a nil *Histogram is a valid no-op target and every
// observation is lock-free (one atomic add per bucket, sum, and count), so
// hot paths hold a tap unconditionally.
type Histogram struct {
	bounds []float64 // sorted upper bounds in seconds; +Inf implicit
	counts []atomic.Int64
	sum    atomic.Int64 // summed observations in nanoseconds
	count  atomic.Int64
}

// NewHistogram builds a histogram with the given upper bounds in seconds
// (DefaultBuckets when none are given). Bounds must be sorted ascending;
// the +Inf overflow bucket is implicit.
func NewHistogram(bounds ...float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefaultBuckets
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
}

// Observe records one duration. Safe on a nil receiver (no-op).
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	sec := d.Seconds()
	i := 0
	for i < len(h.bounds) && sec > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(int64(d))
	h.count.Add(1)
}

// Count returns the number of observations (0 for a nil receiver).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Stat copies the histogram into its snapshot form (zero value for a nil
// receiver).
func (h *Histogram) Stat() HistogramStat {
	if h == nil {
		return HistogramStat{}
	}
	st := HistogramStat{
		Bounds:   append([]float64(nil), h.bounds...),
		Counts:   make([]int64, len(h.counts)),
		SumNanos: h.sum.Load(),
		Count:    h.count.Load(),
	}
	for i := range h.counts {
		st.Counts[i] = h.counts[i].Load()
	}
	return st
}

// HistogramStat is the snapshot form of a Histogram: cumulative-free bucket
// counts aligned with Bounds (Counts has one extra element, the +Inf
// bucket), plus the observation sum and count.
type HistogramStat struct {
	Bounds   []float64 `json:"bounds"`
	Counts   []int64   `json:"counts"`
	SumNanos int64     `json:"sumNanos"`
	Count    int64     `json:"count"`
}

// Quantile returns an upper bound on the q-quantile (0 < q ≤ 1) of the
// recorded observations: the smallest bucket bound at which the cumulative
// count reaches q·Count. It returns +Inf when the quantile lands in the
// overflow bucket and 0 when the histogram is empty — the resolution an
// SLO check needs ("p99 under 50ms") without storing raw samples.
func (s HistogramStat) Quantile(q float64) float64 {
	if s.Count == 0 || q <= 0 {
		return 0
	}
	target := int64(q * float64(s.Count))
	if float64(target) < q*float64(s.Count) {
		target++
	}
	var cum int64
	for i, c := range s.Counts {
		cum += c
		if cum >= target {
			if i < len(s.Bounds) {
				return s.Bounds[i]
			}
			return math.Inf(1)
		}
	}
	return math.Inf(1)
}

// Span is one completed stage interval.
type Span struct {
	// Name is the stage name (a resilience.Stage string, or SpanTotal).
	Name string
	// Start and End bound the interval in wall-clock time.
	Start, End time.Time
}

// Duration returns the span's wall time.
func (s Span) Duration() time.Duration { return s.End.Sub(s.Start) }

// Sink receives completed spans as they end. Implementations must be safe
// for concurrent use; they are called synchronously from the instrumented
// goroutine, so they should be fast.
type Sink interface {
	Span(Span)
}

// BDDCounters are the taps the BDD engine registers (bdd.Manager.Observe):
// node allocations and peak, hash-consing traffic, apply-cache hit rate and
// occupancy, garbage collection, and reordering passes, with the time spent
// in each.
type BDDCounters struct {
	MkCalls        *Counter
	NodesAllocated *Counter
	CacheHits      *Counter
	CacheMisses    *Counter
	GCRuns         *Counter
	NodesFreed     *Counter
	Reorders       *Counter
	GCNanos        *Counter
	ReorderNanos   *Counter
	PeakNodes      *Gauge
	CacheOccupancy *Gauge
}

// VerifyCounters are the taps the verification backends register: scenarios
// examined, traces followed, failing deliveries reported, and (parallel
// mode only) deliveries buffered by workers before the ordered merge. The
// backend-routing taps tick in verify.Router (which backend served each
// check, and fast-path fallbacks to the oracle) and in the poly checker
// (DFS states visited).
type VerifyCounters struct {
	Scenarios *Counter
	Traces    *Counter
	Failing   *Counter
	Collected *Counter

	BackendBrute *Counter
	BackendPoly  *Counter
	PolyFallback *Counter
	PolyVisits   *Counter
}

// RepairCounters are the taps the repair engine registers: BDD solve
// iterations (one per attempted hole set) and holes punched across them.
type RepairCounters struct {
	Iterations   *Counter
	HolesPunched *Counter
}

// stageAgg accumulates the per-stage span aggregate.
type stageAgg struct {
	count int64
	nanos int64
}

// Observer owns a run's counters, gauges, and stage aggregates, and fans
// completed spans out to an optional Sink. All methods are safe on a nil
// *Observer, returning nil taps and no-op closures, so an unobserved run
// costs only nil checks.
type Observer struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	stages     map[string]*stageAgg
	sink       Sink

	bddC    *BDDCounters
	verifyC *VerifyCounters
	repairC *RepairCounters
}

// New returns an Observer forwarding spans to sink (which may be nil).
func New(sink Sink) *Observer {
	return &Observer{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
		stages:     make(map[string]*stageAgg),
		sink:       sink,
	}
}

// Counter returns the named counter, creating it on first use. A nil
// Observer returns a nil (no-op) counter.
func (o *Observer) Counter(name string) *Counter {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.counterLocked(name)
}

func (o *Observer) counterLocked(name string) *Counter {
	c, ok := o.counters[name]
	if !ok {
		c = &Counter{}
		o.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. A nil Observer
// returns a nil (no-op) gauge.
func (o *Observer) Gauge(name string) *Gauge {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.gaugeLocked(name)
}

func (o *Observer) gaugeLocked(name string) *Gauge {
	g, ok := o.gauges[name]
	if !ok {
		g = &Gauge{}
		o.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bounds
// (DefaultBuckets when none) on first use; later calls return the existing
// histogram regardless of bounds. A nil Observer returns a nil (no-op)
// histogram.
func (o *Observer) Histogram(name string, bounds ...float64) *Histogram {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	h, ok := o.histograms[name]
	if !ok {
		h = NewHistogram(bounds...)
		o.histograms[name] = h
	}
	return h
}

// BDD returns the BDD counter bundle under the canonical names. A nil
// Observer returns nil, which every consumer accepts as "unobserved".
func (o *Observer) BDD() *BDDCounters {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.bddC == nil {
		o.bddC = &BDDCounters{
			MkCalls:        o.counterLocked(BDDMkCalls),
			NodesAllocated: o.counterLocked(BDDNodesAllocated),
			CacheHits:      o.counterLocked(BDDCacheHits),
			CacheMisses:    o.counterLocked(BDDCacheMisses),
			GCRuns:         o.counterLocked(BDDGCRuns),
			NodesFreed:     o.counterLocked(BDDNodesFreed),
			Reorders:       o.counterLocked(BDDReorders),
			GCNanos:        o.counterLocked(BDDGCNanos),
			ReorderNanos:   o.counterLocked(BDDReorderNanos),
			PeakNodes:      o.gaugeLocked(BDDPeakNodes),
			CacheOccupancy: o.gaugeLocked(BDDCacheOccupancy),
		}
	}
	return o.bddC
}

// Verify returns the verifier counter bundle under the canonical names. A
// nil Observer returns nil.
func (o *Observer) Verify() *VerifyCounters {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.verifyC == nil {
		o.verifyC = &VerifyCounters{
			Scenarios: o.counterLocked(VerifyScenarios),
			Traces:    o.counterLocked(VerifyTraces),
			Failing:   o.counterLocked(VerifyFailing),
			Collected: o.counterLocked(VerifyCollected),

			BackendBrute: o.counterLocked(VerifyBackendBrute),
			BackendPoly:  o.counterLocked(VerifyBackendPoly),
			PolyFallback: o.counterLocked(VerifyPolyFallback),
			PolyVisits:   o.counterLocked(VerifyPolyVisits),
		}
	}
	return o.verifyC
}

// Repair returns the repair counter bundle under the canonical names. A nil
// Observer returns nil.
func (o *Observer) Repair() *RepairCounters {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.repairC == nil {
		o.repairC = &RepairCounters{
			Iterations:   o.counterLocked(RepairIterations),
			HolesPunched: o.counterLocked(RepairHolesPunched),
		}
	}
	return o.repairC
}

var nop = func() {}

// StartStage opens a span named name and tags the current goroutine (and
// any goroutines it spawns, e.g. parallel verify workers) with the
// {StageLabel: name} pprof label. The returned context carries the label
// set; pass it to the stage's work. The returned func ends the span,
// restores the previous goroutine labels, and forwards the span to the
// sink. A nil Observer returns ctx unchanged and a no-op func.
func (o *Observer) StartStage(ctx context.Context, name string) (context.Context, func()) {
	if o == nil {
		return ctx, nop
	}
	start := time.Now()
	lctx := pprof.WithLabels(ctx, pprof.Labels(StageLabel, name))
	pprof.SetGoroutineLabels(lctx)
	return lctx, func() {
		pprof.SetGoroutineLabels(ctx)
		o.RecordSpan(Span{Name: name, Start: start, End: time.Now()})
	}
}

// RecordSpan folds a completed span into the per-stage aggregate and
// forwards it to the sink. Exposed so tests and external harnesses can
// inject spans with fixed timestamps. Safe on a nil Observer (no-op).
func (o *Observer) RecordSpan(s Span) {
	if o == nil {
		return
	}
	sink := func() Sink {
		o.mu.Lock()
		defer o.mu.Unlock()
		agg, ok := o.stages[s.Name]
		if !ok {
			agg = &stageAgg{}
			o.stages[s.Name] = agg
		}
		agg.count++
		agg.nanos += int64(s.Duration())
		return o.sink
	}()
	// The sink call stays outside the critical section: sinks are
	// caller-supplied and may block.
	if sink != nil {
		sink.Span(s)
	}
}

// StageStat is the aggregate of all spans sharing a name.
type StageStat struct {
	// Count is the number of completed spans.
	Count int64 `json:"count"`
	// Nanos is the summed wall time in nanoseconds.
	Nanos int64 `json:"nanos"`
}

// Duration returns the summed wall time.
func (s StageStat) Duration() time.Duration { return time.Duration(s.Nanos) }

// Snapshot is a point-in-time copy of every counter, gauge, and stage
// aggregate. It is the unit of export: WriteJSON and WritePrometheus render
// it, and benchmark results embed it per run.
type Snapshot struct {
	Counters map[string]int64 `json:"counters"`
	Gauges   map[string]int64 `json:"gauges"`
	// Histograms is omitted from JSON when no histogram was ever created,
	// so pre-histogram consumers of the export schema see unchanged output.
	Histograms map[string]HistogramStat `json:"histograms,omitempty"`
	Stages     map[string]StageStat     `json:"stages"`
}

// Snapshot copies the current state. Counters touched concurrently during
// the copy land in either the old or new value — each counter is read
// atomically. A nil Observer returns an empty (but non-nil-mapped)
// snapshot.
func (o *Observer) Snapshot() Snapshot {
	snap := Snapshot{
		Counters: map[string]int64{},
		Gauges:   map[string]int64{},
		Stages:   map[string]StageStat{},
	}
	if o == nil {
		return snap
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	for name, c := range o.counters {
		snap.Counters[name] = c.Load()
	}
	for name, g := range o.gauges {
		snap.Gauges[name] = g.Load()
	}
	if len(o.histograms) > 0 {
		snap.Histograms = make(map[string]HistogramStat, len(o.histograms))
		for name, h := range o.histograms {
			snap.Histograms[name] = h.Stat()
		}
	}
	for name, agg := range o.stages {
		snap.Stages[name] = StageStat{Count: agg.count, Nanos: agg.nanos}
	}
	return snap
}

// Counter returns a counter's snapshotted value (0 when absent).
func (s Snapshot) Counter(name string) int64 { return s.Counters[name] }

// Gauge returns a gauge's snapshotted value (0 when absent).
func (s Snapshot) Gauge(name string) int64 { return s.Gauges[name] }

// Histogram returns a histogram's snapshotted stat (zero value when absent).
func (s Snapshot) Histogram(name string) HistogramStat { return s.Histograms[name] }

// StageDuration returns the summed wall time of a stage's spans (0 when the
// stage never ran).
func (s Snapshot) StageDuration(name string) time.Duration {
	return s.Stages[name].Duration()
}
