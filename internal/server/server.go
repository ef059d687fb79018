// Package server is the long-running, concurrent synthesis/repair service
// around the anytime supervisor (internal/resilience). A one-shot CLI run
// can afford to die on the first memout; a service absorbing thousands of
// requests cannot, so the server adds the machinery the supervisor itself
// deliberately leaves to its caller:
//
//   - admission control: a bounded queue feeding a fixed worker pool, with
//     load shedding (typed, retryable rejections carrying a Retry-After
//     hint) when requests arrive faster than BDD encoding can absorb them;
//   - deadline propagation: each request's budget is fixed at admission and
//     shrinks while it queues, so the supervisor's stage budgets always
//     split the time actually remaining, and a request that expires in the
//     queue is rejected without wasting a worker;
//   - retry with exponential backoff and full jitter for failures the
//     supervisor classifies as transient (resilience.IsTransient); permanent
//     errors fail fast;
//   - a circuit breaker that, under sustained transient failures or memory
//     pressure, trips the service into a degraded heuristic-only mode (no
//     BDD repair; best-effort tables flagged as degraded) with half-open
//     probes to recover;
//   - graceful drain: shutdown stops admitting, lets in-flight work finish
//     under a drain deadline, force-cancels stragglers with a typed cause,
//     gives queued-but-unstarted requests a clean retryable rejection, and
//     flushes the observability snapshot exactly once.
//
// Every accepted request receives exactly one Response; the chaos/soak test
// drives the whole trichotomy (retry, degrade, recover) with the seeded
// fault-injection harness under the race detector.
package server

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"syrep/internal/cache"
	"syrep/internal/heuristic"
	"syrep/internal/network"
	"syrep/internal/obs"
	"syrep/internal/resilience"
	"syrep/internal/retry"
	"syrep/internal/routing"
	"syrep/internal/verify"
)

// Canonical server metric names, registered in the configured observer and
// exported next to the pipeline's own counters on /metrics.
const (
	MetricAccepted   = "syrep_server_accepted_total"
	MetricRejected   = "syrep_server_rejected_total"
	MetricResponses  = "syrep_server_responses_total"
	MetricRetries    = "syrep_server_retries_total"
	MetricDegraded   = "syrep_server_degraded_total"
	MetricPanics     = "syrep_server_panics_total"
	MetricQueueDepth = "syrep_server_queue_depth"
	// MetricQueueHighWater is the peak queue depth observed since start —
	// a monotone high-water mark (Gauge.SetMax), updated atomically at
	// admission so concurrent Submits never regress it. The instantaneous
	// MetricQueueDepth answers "how loaded is the queue now"; this one
	// answers "how close did the queue ever get to QueueDepth", the
	// capacity-planning signal /readyz thresholds are tuned against.
	MetricQueueHighWater = "syrep_server_queue_high_water"
	MetricBreakerState   = "syrep_server_breaker_state"
)

// ErrQueueFull rejects a request when the admission queue is at capacity.
var ErrQueueFull = errors.New("server: admission queue full")

// ErrDraining rejects a request during graceful shutdown. It is also the
// cancellation cause installed on in-flight work force-cancelled at the
// drain deadline.
var ErrDraining = errors.New("server: draining, not admitting requests")

// Rejection is the typed admission failure: the request was not accepted
// (or was accepted but drained unstarted) and should be retried elsewhere
// or after RetryAfter. It unwraps to its Reason (ErrQueueFull or
// ErrDraining).
type Rejection struct {
	// Reason is ErrQueueFull or ErrDraining.
	Reason error
	// RetryAfter is the suggested resubmission delay.
	RetryAfter time.Duration
}

// Error describes the rejection.
func (r *Rejection) Error() string {
	return fmt.Sprintf("%v (retry after %s)", r.Reason, r.RetryAfter)
}

// Unwrap exposes the rejection reason to errors.Is.
func (r *Rejection) Unwrap() error { return r.Reason }

// IsRetryable reports whether err signals a failure worth resubmitting:
// an admission rejection or a failure the supervisor classifies as
// transient.
func IsRetryable(err error) bool {
	var rej *Rejection
	return errors.As(err, &rej) || resilience.IsTransient(err)
}

// Kind selects the operation a Request performs.
type Kind int

const (
	// KindSynthesize runs resilience.Synthesize on Net/Dest.
	KindSynthesize Kind = iota + 1
	// KindRepair runs resilience.Repair on Routing.
	KindRepair
)

func (k Kind) String() string {
	switch k {
	case KindSynthesize:
		return "synthesize"
	case KindRepair:
		return "repair"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Request is one unit of admitted work.
type Request struct {
	// Kind selects synthesis or repair.
	Kind Kind
	// Net and Dest are the synthesis instance (KindSynthesize).
	Net  *network.Network
	Dest network.NodeID
	// Routing is the table to fortify (KindRepair).
	Routing *routing.Routing
	// K is the resilience level.
	K int
	// Strategy defaults to Combined.
	Strategy resilience.Strategy
	// Timeout bounds the request end to end — queueing, every retry, and
	// the supervisor run inside each attempt all share it. Zero takes the
	// server's DefaultTimeout; values above MaxTimeout are clamped.
	Timeout time.Duration
	// Budgets optionally overrides the supervisor's per-stage budget split.
	Budgets resilience.Budgets
	// Shared, when non-nil, supplies batch-scoped resources (the
	// destination-independent reduction candidates and a warm BDD manager
	// pool) to this request's pipeline run. The all-destinations handler
	// sets it so N requests over one topology don't pay N full encodings.
	Shared *resilience.SharedResources
}

// Response is the single reply every accepted request receives.
type Response struct {
	// Routing is the produced table: fully resilient on success, the best
	// checkpointed table on a partial salvage, a heuristic-only table in
	// degraded mode, nil on outright failure.
	Routing *routing.Routing
	// Resilient reports that Routing is perfectly K-resilient.
	Resilient bool
	// Residual counts Routing's known failing deliveries when not
	// resilient (meaningless when ResidualUnknown).
	Residual int
	// ResidualUnknown: no verification pass over Routing completed.
	ResidualUnknown bool
	// Partial: the supervisor salvaged Routing from a checkpoint after the
	// run was cut short.
	Partial bool
	// Degraded: the breaker was open and the request was served by the
	// heuristic-only degraded path (no BDD repair).
	Degraded bool
	// Retries counts the additional full-pipeline attempts after the first.
	Retries int
	// Cached: served straight from the synthesis cache, no pipeline run.
	Cached bool
	// Deduped: a concurrent identical request was in flight; this response
	// shares its result, costing no extra pipeline run.
	Deduped bool
	// WarmStart: a dynamic-repair request served by the warm-start fast
	// path — a cached table adapted onto the submitted topology and
	// fortified, skipping the early pipeline stages.
	WarmStart bool
	// Report is the supervisor's run report of the final attempt
	// (KindSynthesize only; nil in degraded mode).
	Report *resilience.Report
	// Err is the terminal error: nil on success and in degraded mode.
	// A Partial salvage keeps the supervisor's typed error here alongside
	// the salvaged Routing.
	Err error
}

// Config tunes a Server. Zero fields take the documented defaults.
type Config struct {
	// Workers is the fixed worker-pool size (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds the admission queue (default 4×Workers).
	QueueDepth int
	// HighWater is the queue length at and above which /readyz reports
	// not-ready, shedding load before the queue hard-rejects
	// (default QueueDepth/2, rounded up).
	HighWater int
	// DefaultTimeout applies to requests that name none (default 30s).
	DefaultTimeout time.Duration
	// MaxTimeout caps requested timeouts (default 2m).
	MaxTimeout time.Duration
	// RetryMax is the number of retries after the first attempt for
	// transient failures (default 3; negative disables retries).
	RetryMax int
	// RetryBase and RetryCap bound the full-jitter exponential backoff
	// (defaults 50ms and 2s).
	RetryBase time.Duration
	RetryCap  time.Duration
	// RetrySeed seeds the jitter RNG so a server's delay sequence is
	// reproducible (0 means seed 1).
	RetrySeed int64
	// RetryAfterHint is the Retry-After suggestion on rejections
	// (default 1s).
	RetryAfterHint time.Duration
	// Breaker tunes the circuit breaker.
	Breaker retry.BreakerConfig
	// DegradedBudget bounds each phase (heuristic generation, residual
	// verification) of a degraded-mode response (default 1s).
	DegradedBudget time.Duration
	// DrainTimeout bounds how long Shutdown waits for in-flight work
	// before force-cancelling it (default 10s).
	DrainTimeout time.Duration
	// MemoryPressure, when non-nil, is polled before each full-pipeline
	// attempt; returning true trips the breaker (degraded mode) until the
	// cooldown elapses, and purges the synthesis cache — it is the
	// service's largest discretionary allocation. Nil disables the check.
	MemoryPressure func() bool
	// Cache, when non-nil, is the cross-request synthesis cache
	// (internal/cache): synthesize responses are served from and inserted
	// by content fingerprint, concurrent identical requests are collapsed
	// into one pipeline run, and repair requests submitted without a
	// routing table take the warm-start fast path. Nil disables caching.
	Cache *cache.Cache
	// WarmStartMaxDiff is the largest topology edge-diff (symmetric
	// difference of canonical edge sets) the warm-start fast path bridges
	// from a cached base; larger diffs synthesize cold (default 2).
	WarmStartMaxDiff int
	// Obs observes the server and every supervisor run (nil = unobserved).
	Obs *obs.Observer
	// OnFlush receives the final metrics snapshot exactly once, during
	// Shutdown (nil = no flush).
	OnFlush func(obs.Snapshot)
	// Hook is threaded into every supervisor run — the fault-injection
	// test hook; nil in production.
	Hook resilience.Hook
	// VerifyBackend is threaded into every supervisor run and into
	// degraded-mode residual verification (typically a verify.Router with
	// the polynomial fast path). Nil means brute force everywhere.
	VerifyBackend verify.Backend

	// now and sleep are test seams; nil means real time.
	now   func() time.Time
	sleep func(ctx context.Context, d time.Duration) error
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.Workers
	}
	if c.HighWater <= 0 || c.HighWater > c.QueueDepth {
		c.HighWater = (c.QueueDepth + 1) / 2
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 2 * time.Minute
	}
	if c.RetryMax == 0 {
		c.RetryMax = 3
	}
	if c.RetryMax < 0 {
		c.RetryMax = 0
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 50 * time.Millisecond
	}
	if c.RetryCap <= 0 {
		c.RetryCap = 2 * time.Second
	}
	if c.RetryAfterHint <= 0 {
		c.RetryAfterHint = time.Second
	}
	if c.DegradedBudget <= 0 {
		c.DegradedBudget = time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 10 * time.Second
	}
	if c.WarmStartMaxDiff <= 0 {
		c.WarmStartMaxDiff = 2
	}
	if c.now == nil {
		c.now = time.Now
	}
	if c.sleep == nil {
		c.sleep = retry.Sleep
	}
	return c
}

// job is one accepted request travelling through the queue.
type job struct {
	req *Request
	// deadline is the request's end-to-end budget, fixed at admission.
	deadline time.Time
	// done receives exactly one Response (buffered, so a worker never
	// blocks on an abandoned caller).
	done chan *Response
}

// Ticket is the caller's handle on an accepted request.
type Ticket struct {
	done <-chan *Response
}

// Wait blocks for the request's single Response. A ctx expiry abandons the
// wait (the work itself continues and its response is dropped into the
// ticket's buffer) and returns the context's cause.
func (t *Ticket) Wait(ctx context.Context) (*Response, error) {
	select {
	case resp := <-t.done:
		return resp, nil
	case <-ctx.Done():
		return nil, context.Cause(ctx)
	}
}

// Server is the resilient synthesis/repair service. Create with New, feed
// with Submit/Do, stop with Shutdown.
type Server struct {
	cfg     Config
	queue   chan *job
	wg      sync.WaitGroup
	breaker *retry.Breaker
	backoff *retry.Backoff

	// baseCtx parents every request context; Shutdown cancels it with
	// cause ErrDraining once the drain deadline passes.
	baseCtx    context.Context
	cancelBase context.CancelCauseFunc

	mu       sync.Mutex
	draining bool
	drainCh  chan struct{}

	// pending counts admitted-but-unstarted jobs. It, not len(queue), is
	// the load-shed accounting: incremented under mu before the enqueue and
	// decremented by the worker on dequeue, so the post-increment value is
	// the exact admission peak (channel length read outside the lock can
	// miss peaks that a worker has already begun to drain). The invariant
	// pending >= channel occupancy, enforced by that ordering, also means
	// the admission check pending < cap guarantees the send cannot block.
	pending atomic.Int64

	flushOnce sync.Once

	accepted, rejected, responses, retried, degraded, panics *obs.Counter
	queueDepth, queueHighWater, breakerGauge                 *obs.Gauge
}

// New builds and starts a Server: the worker pool is running and Submit is
// accepting when it returns.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	baseCtx, cancel := context.WithCancelCause(context.Background())
	s := &Server{
		cfg:        cfg,
		queue:      make(chan *job, cfg.QueueDepth),
		breaker:    retry.NewBreaker(cfg.Breaker),
		backoff:    retry.New(cfg.RetryBase, cfg.RetryCap, cfg.RetrySeed),
		baseCtx:    baseCtx,
		cancelBase: cancel,
		drainCh:    make(chan struct{}),

		accepted:       cfg.Obs.Counter(MetricAccepted),
		rejected:       cfg.Obs.Counter(MetricRejected),
		responses:      cfg.Obs.Counter(MetricResponses),
		retried:        cfg.Obs.Counter(MetricRetries),
		degraded:       cfg.Obs.Counter(MetricDegraded),
		panics:         cfg.Obs.Counter(MetricPanics),
		queueDepth:     cfg.Obs.Gauge(MetricQueueDepth),
		queueHighWater: cfg.Obs.Gauge(MetricQueueHighWater),
		breakerGauge:   cfg.Obs.Gauge(MetricBreakerState),
	}
	s.breaker.OnTransition(func(_, to retry.BreakerState) {
		s.breakerGauge.Set(int64(to))
	})
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Breaker exposes the circuit breaker for readiness checks and tests.
func (s *Server) Breaker() *retry.Breaker { return s.breaker }

// QueueLen returns the number of admitted-but-unstarted requests, from the
// same accounting that drives the queue gauges and load shedding.
func (s *Server) QueueLen() int { return int(s.pending.Load()) }

// Draining returns a channel closed when Shutdown begins.
func (s *Server) Draining() <-chan struct{} { return s.drainCh }

func (s *Server) isDraining() bool {
	select {
	case <-s.drainCh:
		return true
	default:
		return false
	}
}

func validate(req *Request) error {
	if req == nil {
		return errors.New("server: nil request")
	}
	switch req.Kind {
	case KindSynthesize:
		if req.Net == nil {
			return errors.New("server: synthesize request without a network")
		}
	case KindRepair:
		// A repair may name a table to fortify, or just a topology: the
		// latter is dynamic repair, served warm from the synthesis cache
		// when a near-enough base is cached and cold otherwise.
		if req.Routing == nil && req.Net == nil {
			return errors.New("server: repair request without a routing or a topology")
		}
	default:
		return fmt.Errorf("server: unknown request kind %v", req.Kind)
	}
	if req.K < 0 {
		return fmt.Errorf("server: negative resilience level %d", req.K)
	}
	return nil
}

// timeout clamps the request's end-to-end budget into (0, MaxTimeout].
func (s *Server) timeout(req *Request) time.Duration {
	d := req.Timeout
	if d <= 0 {
		d = s.cfg.DefaultTimeout
	}
	if d > s.cfg.MaxTimeout {
		d = s.cfg.MaxTimeout
	}
	return d
}

// Submit admits a request. On success the returned Ticket delivers exactly
// one Response. On load shedding or drain the error is a *Rejection
// carrying a Retry-After hint; a malformed request fails with a plain
// (permanent) validation error.
func (s *Server) Submit(req *Request) (*Ticket, error) {
	if err := validate(req); err != nil {
		return nil, err
	}
	j := &job{
		req:      req,
		deadline: s.cfg.now().Add(s.timeout(req)),
		done:     make(chan *Response, 1),
	}
	depth, rej := s.admit()
	if rej != nil {
		s.rejected.Inc()
		return nil, rej
	}
	// admit reserved a slot: every reserved-but-unsent job (ours included)
	// is counted in pending, so occupancy <= pending - 1 < cap and this
	// send cannot block.
	s.queue <- j
	s.accepted.Inc()
	s.queueDepth.Set(depth)
	// The mark only rises at admission: workers shrink the queue.
	s.queueHighWater.SetMax(depth)
	return &Ticket{done: j.done}, nil
}

// admit checks drain state and reserves one queue slot, returning the
// post-reservation pending depth. The check and the increment share the
// mutex so concurrent submitters cannot over-admit: pending never exceeds
// cap(queue), which is exactly what keeps Submit's post-admit send
// non-blocking.
func (s *Server) admit() (int64, *Rejection) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return 0, &Rejection{Reason: ErrDraining, RetryAfter: s.cfg.RetryAfterHint}
	}
	if s.pending.Load() >= int64(cap(s.queue)) {
		return 0, &Rejection{Reason: ErrQueueFull, RetryAfter: s.cfg.RetryAfterHint}
	}
	return s.pending.Add(1), nil
}

// Do submits req and waits for its response. The returned error is an
// admission or wait failure; pipeline failures travel in Response.Err.
func (s *Server) Do(ctx context.Context, req *Request) (*Response, error) {
	t, err := s.Submit(req)
	if err != nil {
		return nil, err
	}
	return t.Wait(ctx)
}

// worker drains the admission queue until Shutdown closes it. Jobs pulled
// after the drain began are rejected, not run, so queued-but-unstarted
// requests get their retryable rejection promptly.
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.queueDepth.Set(s.pending.Add(-1))
		var resp *Response
		if s.isDraining() {
			resp = &Response{Err: &Rejection{Reason: ErrDraining, RetryAfter: s.cfg.RetryAfterHint}}
		} else {
			resp = s.dispatch(j)
		}
		s.responses.Inc()
		j.done <- resp
	}
}

// execute runs one accepted request to its single response: full-pipeline
// attempts with backoff between transient failures, or the degraded path
// whenever the breaker refuses. The request's admission deadline spans all
// of it.
func (s *Server) execute(j *job) *Response {
	req := j.req
	// last is the most recent failed attempt; it may carry a partial table
	// salvaged by the anytime supervisor, which must survive a deadline
	// expiry during backoff — the caller gets the best table seen, not an
	// empty failure.
	var last *Response
	for attempt := 0; ; attempt++ {
		remaining := j.deadline.Sub(s.cfg.now())
		if remaining <= 0 {
			// Expired while queued or backing off: a clean transient
			// failure, no worker time wasted on a doomed run.
			err := fmt.Errorf("server: request deadline expired before attempt %d: %w",
				attempt+1, context.DeadlineExceeded)
			if last != nil {
				last.Err = errors.Join(err, last.Err)
				return last
			}
			return &Response{Retries: attempt, Err: err}
		}
		if s.cfg.MemoryPressure != nil && s.cfg.MemoryPressure() {
			s.breaker.Trip(s.cfg.now())
			if s.cfg.Cache != nil {
				s.cfg.Cache.Purge()
			}
		}
		if !s.breaker.Allow(s.cfg.now()) {
			s.degraded.Inc()
			resp := s.serveDegraded(req, remaining)
			resp.Retries = attempt
			return resp
		}
		resp := s.runOnce(req, remaining)
		resp.Retries = attempt
		if resp.Err == nil {
			s.breaker.Record(true, s.cfg.now())
			return resp
		}
		transient := resilience.IsTransient(resp.Err)
		// The breaker tracks service health, not instance solvability: a
		// permanent error means the pipeline itself ran fine.
		s.breaker.Record(!transient, s.cfg.now())
		if !transient || s.baseCtx.Err() != nil || attempt >= s.cfg.RetryMax {
			return resp
		}
		s.retried.Inc()
		last = resp
		if err := s.cfg.sleep(s.baseCtx, s.backoff.Delay(attempt)); err != nil {
			resp.Err = errors.Join(err, resp.Err)
			return resp
		}
	}
}

// fence converts a panic escaping f — the server's own glue, or anything
// the supervisor's boundary cannot see — into an error response, so a
// poisoned request can never take a worker down.
func (s *Server) fence(f func() *Response) (resp *Response) {
	defer func() {
		if v := recover(); v != nil {
			s.panics.Inc()
			resp = &Response{Err: fmt.Errorf("server: request panicked: %v", v)}
		}
	}()
	return f()
}

// runOnce is one full-pipeline attempt under the request's remaining budget.
func (s *Server) runOnce(req *Request, remaining time.Duration) *Response {
	return s.fence(func() *Response {
		opts := resilience.Options{
			Strategy:      req.Strategy,
			Timeout:       remaining,
			Budgets:       req.Budgets,
			Obs:           s.cfg.Obs,
			Hook:          s.cfg.Hook,
			VerifyBackend: s.cfg.VerifyBackend,
			Shared:        req.Shared,
		}
		resp := &Response{}
		switch {
		case req.Kind == KindRepair && req.Routing != nil:
			out, err := resilience.Repair(s.baseCtx, req.Routing, req.K, opts)
			if err != nil {
				return s.fillFailure(resp, err)
			}
			resp.Routing, resp.Resilient = out.Routing, true
		default:
			// KindSynthesize, and dynamic repair (KindRepair without a
			// table) that missed the warm-start fast path: synthesize cold.
			r, rep, err := resilience.Synthesize(s.baseCtx, req.Net, req.Dest, req.K, opts)
			resp.Report = rep
			if err != nil {
				return s.fillFailure(resp, err)
			}
			resp.Routing, resp.Resilient = r, true
		}
		return resp
	})
}

// fillFailure shapes a failed attempt: a *Partial keeps its salvaged table
// alongside the typed error, and a cancellation during drain gets the
// server's shutdown cause joined in (context.WithCancelCause on the base
// context) so the caller sees "draining", not a bare context.Canceled.
func (s *Server) fillFailure(resp *Response, err error) *Response {
	if errors.Is(err, context.Canceled) && !errors.Is(err, ErrDraining) {
		if cause := context.Cause(s.baseCtx); cause != nil && errors.Is(cause, ErrDraining) {
			err = errors.Join(cause, err)
		}
	}
	resp.Err = err
	if p, ok := resilience.AsPartial(err); ok {
		resp.Routing = p.Routing
		resp.Partial = true
		resp.Residual = len(p.Residual)
		resp.ResidualUnknown = p.ResidualUnknown
	}
	return resp
}

// serveDegraded is the breaker-open path: a heuristic-only best-effort
// table (no BDD repair), priced by a bounded verification pass and flagged
// as degraded. Repair requests get their input table back unimproved —
// with its residual, so the caller knows exactly what still fails.
func (s *Server) serveDegraded(req *Request, remaining time.Duration) *Response {
	return s.fence(func() *Response {
		resp := &Response{Degraded: true}
		budget := s.cfg.DegradedBudget
		if budget > remaining {
			budget = remaining
		}
		var r *routing.Routing
		if req.Kind == KindRepair && req.Routing != nil {
			r = req.Routing.Clone()
		} else {
			hctx, cancel := context.WithTimeout(s.baseCtx, budget)
			var err error
			r, err = heuristic.Generate(hctx, req.Net, req.Dest)
			cancel()
			if err != nil {
				resp.Err = err
				return resp
			}
		}
		resp.Routing = r
		vctx, cancel := context.WithTimeout(s.baseCtx, budget)
		backend := s.cfg.VerifyBackend
		if backend == nil {
			backend = verify.BruteForce{}
		}
		vrep, err := backend.Check(vctx, r, req.K, verify.Options{
			Prune:    true,
			Counters: s.cfg.Obs.Verify(),
		})
		cancel()
		if err != nil {
			// The table is still served; only its residual is unknown.
			resp.ResidualUnknown = true
			return resp
		}
		resp.Resilient = vrep.Resilient
		resp.Residual = len(vrep.Failing)
		return resp
	})
}

// Shutdown drains the server: admission stops immediately (Submit returns
// a retryable ErrDraining rejection), queued-but-unstarted requests are
// rejected the same way, and in-flight work gets DrainTimeout to finish
// before being force-cancelled with cause ErrDraining. The observability
// snapshot is flushed to Config.OnFlush exactly once, no matter how often
// Shutdown is called. ctx bounds the post-cancel wait for stuck workers;
// its expiry is returned as an error.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	first := !s.draining
	s.draining = true
	s.mu.Unlock()
	if first {
		close(s.drainCh)
		close(s.queue)
	}

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()

	var err error
	drain := time.NewTimer(s.cfg.DrainTimeout)
	defer drain.Stop()
	select {
	case <-done:
	case <-ctx.Done():
		s.cancelBase(ErrDraining)
		err = context.Cause(ctx)
	case <-drain.C:
		// Drain deadline: force-cancel in-flight work and wait for the
		// workers to observe it.
		s.cancelBase(ErrDraining)
		select {
		case <-done:
		case <-ctx.Done():
			err = context.Cause(ctx)
		}
	}
	s.cancelBase(ErrDraining) // release the base context in every path
	s.flushOnce.Do(func() {
		if s.cfg.OnFlush != nil {
			s.cfg.OnFlush(s.cfg.Obs.Snapshot())
		}
	})
	return err
}
