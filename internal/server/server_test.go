package server

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"syrep/internal/bdd"
	"syrep/internal/obs"
	"syrep/internal/papernet"
	"syrep/internal/resilience"
	"syrep/internal/resilience/faultinject"
	"syrep/internal/retry"
)

// gateHook blocks every supervisor stage until released, so tests can hold a
// worker mid-request deterministically.
type gateHook struct {
	entered chan struct{} // closed when the first stage is entered
	release chan struct{}
	once    sync.Once
}

func newGateHook() *gateHook {
	return &gateHook{entered: make(chan struct{}), release: make(chan struct{})}
}

func (g *gateHook) At(resilience.Stage) error {
	g.once.Do(func() { close(g.entered) })
	<-g.release
	return nil
}

func synthRequest() *Request {
	n := papernet.Figure1()
	return &Request{
		Kind:     KindSynthesize,
		Net:      n,
		Dest:     papernet.Figure1Dest(n),
		K:        2,
		Strategy: resilience.HeuristicOnly,
	}
}

func shutdownServer(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Errorf("Shutdown: %v", err)
	}
}

// TestQueueFullRejection: with one busy worker and a depth-1 queue, the
// second waiting request is shed with a typed, retryable rejection carrying
// a Retry-After hint — the load-shedding contract.
func TestQueueFullRejection(t *testing.T) {
	faultinject.LeakCheck(t)
	gate := newGateHook()
	s := New(Config{
		Workers:        1,
		QueueDepth:     1,
		Hook:           gate,
		RetryAfterHint: 3 * time.Second,
		DrainTimeout:   2 * time.Second,
	})
	defer shutdownServer(t, s)

	tktA, err := s.Submit(synthRequest())
	if err != nil {
		t.Fatalf("Submit A: %v", err)
	}
	<-gate.entered // the worker holds A; the queue is empty again

	tktB, err := s.Submit(synthRequest())
	if err != nil {
		t.Fatalf("Submit B: %v", err)
	}

	_, err = s.Submit(synthRequest())
	var rej *Rejection
	if !errors.As(err, &rej) {
		t.Fatalf("Submit C: got %v, want *Rejection", err)
	}
	if !errors.Is(err, ErrQueueFull) {
		t.Errorf("rejection reason = %v, want ErrQueueFull", rej.Reason)
	}
	if rej.RetryAfter != 3*time.Second {
		t.Errorf("RetryAfter = %s, want 3s", rej.RetryAfter)
	}
	if !IsRetryable(err) {
		t.Error("queue-full rejection must be retryable")
	}

	close(gate.release)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, tkt := range []*Ticket{tktA, tktB} {
		resp, err := tkt.Wait(ctx)
		if err != nil {
			t.Fatalf("Wait: %v", err)
		}
		if resp.Err != nil {
			t.Fatalf("accepted request failed: %v", resp.Err)
		}
	}
}

// TestRetryTransientThenSuccess: a one-shot node-limit fault fails the first
// attempt; the server backs off (through the sleep seam) and the second
// attempt succeeds. Retries and the backoff call are both visible.
func TestRetryTransientThenSuccess(t *testing.T) {
	faultinject.LeakCheck(t)
	var mu sync.Mutex
	var slept []time.Duration
	s := New(Config{
		Workers: 1,
		Hook: faultinject.New(faultinject.Fault{
			Stage: resilience.StageHeuristic,
			Kind:  faultinject.NodeLimit,
			Times: 1,
		}),
		RetryBase: 10 * time.Millisecond,
		RetryCap:  40 * time.Millisecond,
		sleep: func(_ context.Context, d time.Duration) error {
			mu.Lock()
			slept = append(slept, d)
			mu.Unlock()
			return nil
		},
		DrainTimeout: 2 * time.Second,
	})
	defer shutdownServer(t, s)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	resp, err := s.Do(ctx, synthRequest())
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if resp.Err != nil {
		t.Fatalf("request failed after retry: %v", resp.Err)
	}
	if !resp.Resilient || resp.Routing == nil {
		t.Errorf("resilient = %v, routing = %v; want a resilient table", resp.Resilient, resp.Routing)
	}
	if resp.Retries != 1 {
		t.Errorf("Retries = %d, want 1", resp.Retries)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(slept) != 1 {
		t.Fatalf("backoff slept %d times, want 1", len(slept))
	}
	if slept[0] < 0 || slept[0] >= 10*time.Millisecond {
		t.Errorf("first backoff = %s, want full jitter in [0, 10ms)", slept[0])
	}
	if s.Breaker().State() != retry.BreakerClosed {
		t.Errorf("breaker = %s after recovery, want closed", s.Breaker().State())
	}
}

// TestPermanentFailFast: an unsolvable-class error is not retried, does not
// back off, and does not count against the breaker (the pipeline itself ran
// fine; the instance was the problem).
func TestPermanentFailFast(t *testing.T) {
	faultinject.LeakCheck(t)
	s := New(Config{
		Workers: 1,
		Hook: faultinject.New(faultinject.Fault{
			Stage: resilience.StageHeuristic,
			Kind:  faultinject.Error,
			Err:   resilience.ErrUnsolvable,
		}),
		sleep: func(context.Context, time.Duration) error {
			t.Error("permanent failure must not back off")
			return nil
		},
		Breaker:      retry.BreakerConfig{Threshold: 2},
		DrainTimeout: 2 * time.Second,
	})
	defer shutdownServer(t, s)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := 0; i < 3; i++ {
		resp, err := s.Do(ctx, synthRequest())
		if err != nil {
			t.Fatalf("Do: %v", err)
		}
		if resp.Err == nil {
			t.Fatal("want a permanent error, got success")
		}
		if !resilience.IsPermanent(resp.Err) {
			t.Errorf("IsPermanent(%v) = false, want true", resp.Err)
		}
		if IsRetryable(resp.Err) {
			t.Errorf("permanent error %v must not be retryable", resp.Err)
		}
		if resp.Retries != 0 {
			t.Errorf("Retries = %d, want 0 (fail fast)", resp.Retries)
		}
	}
	// Three consecutive permanent errors with Threshold 2: still closed.
	if s.Breaker().State() != retry.BreakerClosed {
		t.Errorf("breaker = %s after permanent errors, want closed", s.Breaker().State())
	}
}

// TestDeadlineExpiredInQueue: a request whose end-to-end budget dies while
// it waits behind a busy worker is rejected cleanly — a transient deadline
// error, no pipeline time spent on a doomed run.
func TestDeadlineExpiredInQueue(t *testing.T) {
	faultinject.LeakCheck(t)
	gate := newGateHook()
	s := New(Config{
		Workers:      1,
		QueueDepth:   2,
		Hook:         gate,
		DrainTimeout: 2 * time.Second,
	})
	defer shutdownServer(t, s)

	tktA, err := s.Submit(synthRequest())
	if err != nil {
		t.Fatalf("Submit A: %v", err)
	}
	<-gate.entered

	reqB := synthRequest()
	reqB.Timeout = time.Nanosecond
	tktB, err := s.Submit(reqB)
	if err != nil {
		t.Fatalf("Submit B: %v", err)
	}
	// B's budget is long dead by the time the worker frees up.
	time.Sleep(5 * time.Millisecond)
	close(gate.release)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if resp, err := tktA.Wait(ctx); err != nil || resp.Err != nil {
		t.Fatalf("A: wait err %v, resp err %v", err, resp.Err)
	}
	resp, err := tktB.Wait(ctx)
	if err != nil {
		t.Fatalf("B: %v", err)
	}
	if resp.Err == nil || !errors.Is(resp.Err, context.DeadlineExceeded) {
		t.Fatalf("B err = %v, want deadline exceeded", resp.Err)
	}
	if !IsRetryable(resp.Err) {
		t.Error("queue-expired request must be retryable")
	}
	if resp.Routing != nil {
		t.Error("expired request must not carry a table")
	}
}

// TestBudgetCauseInResponse (satellite: cancellation causes): a stage-budget
// expiry inside the supervisor surfaces in the server response as a typed
// *resilience.BudgetError naming the stage — not a bare context error.
func TestBudgetCauseInResponse(t *testing.T) {
	faultinject.LeakCheck(t)
	s := New(Config{
		Workers:      1,
		RetryMax:     -1, // isolate the first attempt's error
		DrainTimeout: 2 * time.Second,
	})
	defer shutdownServer(t, s)

	req := synthRequest()
	req.Timeout = time.Minute
	req.Budgets = resilience.Budgets{Heuristic: 1e-15}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	resp, err := s.Do(ctx, req)
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if resp.Err == nil {
		t.Fatal("want a budget failure, got success")
	}
	var be *resilience.BudgetError
	if !errors.As(resp.Err, &be) {
		t.Fatalf("response error %v does not carry a *resilience.BudgetError", resp.Err)
	}
	if be.Stage != resilience.StageHeuristic {
		t.Errorf("budget cause stage = %s, want %s", be.Stage, resilience.StageHeuristic)
	}
	if !strings.Contains(resp.Err.Error(), "heuristic stage budget exceeded") {
		t.Errorf("error text %q does not name the exhausted stage budget", resp.Err)
	}
	if !IsRetryable(resp.Err) {
		t.Error("budget expiry must be retryable")
	}
}

// TestMemoryPressureDegrades: memory pressure trips the breaker and the
// request is served on the degraded heuristic-only path, flagged as such.
func TestMemoryPressureDegrades(t *testing.T) {
	faultinject.LeakCheck(t)
	o := obs.New(nil)
	s := New(Config{
		Workers:        1,
		MemoryPressure: func() bool { return true },
		Obs:            o,
		DrainTimeout:   2 * time.Second,
	})
	defer shutdownServer(t, s)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	resp, err := s.Do(ctx, synthRequest())
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if !resp.Degraded {
		t.Fatal("want a degraded response under memory pressure")
	}
	if resp.Err != nil {
		t.Errorf("degraded response carries error %v, want nil", resp.Err)
	}
	if resp.Routing == nil {
		t.Error("degraded response must still carry a best-effort table")
	}
	if resp.ResidualUnknown {
		t.Error("the bounded verification pass should have priced the table")
	}
	if s.Breaker().State() != retry.BreakerOpen {
		t.Errorf("breaker = %s, want open", s.Breaker().State())
	}
	if got := o.Counter(MetricDegraded).Load(); got != 1 {
		t.Errorf("%s = %d, want 1", MetricDegraded, got)
	}

	// A degraded repair returns the input table unimproved, with its residual.
	n := papernet.Figure1()
	rr := &Request{Kind: KindRepair, Routing: papernet.Figure1bRouting(n), K: 2}
	resp, err = s.Do(ctx, rr)
	if err != nil {
		t.Fatalf("Do repair: %v", err)
	}
	if !resp.Degraded || resp.Routing == nil {
		t.Fatalf("degraded repair: degraded=%v routing=%v", resp.Degraded, resp.Routing)
	}
	if resp.Resilient {
		t.Error("figure 1b is not 2-resilient; a degraded repair cannot have fixed it")
	}
	if resp.Residual == 0 && !resp.ResidualUnknown {
		t.Error("degraded repair of a non-resilient table must report a residual")
	}
}

// TestValidation: malformed requests fail fast with plain (non-retryable)
// errors and never enter the queue.
func TestValidation(t *testing.T) {
	faultinject.LeakCheck(t)
	s := New(Config{Workers: 1, DrainTimeout: 2 * time.Second})
	defer shutdownServer(t, s)

	cases := []*Request{
		nil,
		{Kind: KindSynthesize}, // no network
		{Kind: KindRepair},     // no routing
		{Kind: Kind(99), Net: papernet.Figure1()},              // unknown kind
		{Kind: KindSynthesize, Net: papernet.Figure1(), K: -1}, // negative k
	}
	for i, req := range cases {
		_, err := s.Submit(req)
		if err == nil {
			t.Errorf("case %d: Submit accepted a malformed request", i)
			continue
		}
		if IsRetryable(err) {
			t.Errorf("case %d: validation error %v must not be retryable", i, err)
		}
	}
}

// TestPanicFence: a request that panics inside the server's own glue is
// converted to an error response; the worker survives and serves the next
// request.
func TestPanicFence(t *testing.T) {
	faultinject.LeakCheck(t)
	o := obs.New(nil)
	s := New(Config{Workers: 1, Obs: o, DrainTimeout: 2 * time.Second})
	defer shutdownServer(t, s)

	resp := s.fence(func() *Response { panic("poisoned request") })
	if resp.Err == nil || !strings.Contains(resp.Err.Error(), "poisoned request") {
		t.Fatalf("fenced panic yielded %v", resp.Err)
	}
	if got := o.Counter(MetricPanics).Load(); got != 1 {
		t.Errorf("%s = %d, want 1", MetricPanics, got)
	}

	// The pool still serves.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	r, err := s.Do(ctx, synthRequest())
	if err != nil || r.Err != nil {
		t.Fatalf("request after fenced panic: %v / %v", err, r.Err)
	}
}

// TestBreakerOpensOnNodeLimitFault verifies the classification boundary used
// by the breaker: a node-limit memout is transient, so sustained memouts
// trip it.
func TestBreakerOpensOnNodeLimitFault(t *testing.T) {
	faultinject.LeakCheck(t)
	s := New(Config{
		Workers: 1,
		Hook: faultinject.New(faultinject.Fault{
			Stage: resilience.StageHeuristic,
			Kind:  faultinject.NodeLimit, // Times 0: every attempt fails
		}),
		RetryMax:     -1,
		Breaker:      retry.BreakerConfig{Threshold: 3, Cooldown: time.Hour},
		DrainTimeout: 2 * time.Second,
	})
	defer shutdownServer(t, s)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := 0; i < 3; i++ {
		resp, err := s.Do(ctx, synthRequest())
		if err != nil {
			t.Fatalf("Do %d: %v", i, err)
		}
		if resp.Degraded {
			t.Fatalf("request %d degraded before the threshold", i)
		}
		if !errors.Is(resp.Err, bdd.ErrNodeLimit) {
			t.Fatalf("request %d err = %v, want node limit", i, resp.Err)
		}
	}
	if s.Breaker().State() != retry.BreakerOpen {
		t.Fatalf("breaker = %s after %d memouts, want open", s.Breaker().State(), 3)
	}
	// The next request rides the degraded path instead of failing.
	resp, err := s.Do(ctx, synthRequest())
	if err != nil {
		t.Fatalf("Do degraded: %v", err)
	}
	if !resp.Degraded || resp.Err != nil {
		t.Fatalf("degraded=%v err=%v, want a clean degraded response", resp.Degraded, resp.Err)
	}
}

// slewClock is a thread-safe fake clock the sleep seam can jump forward.
type slewClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *slewClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *slewClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// TestPartialSurvivesDeadlineExpiryInBackoff: attempt 1 fails transiently
// but salvages a partial table; the request deadline then expires during
// backoff. The response must keep the salvaged table alongside the deadline
// error — the anytime contract holds across the retry loop.
func TestPartialSurvivesDeadlineExpiryInBackoff(t *testing.T) {
	faultinject.LeakCheck(t)
	clk := &slewClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
	// A persistent node-limit fault at the repair stage exhausts the
	// escalation ladder and yields a *Partial carrying the heuristic table.
	inj := faultinject.New(faultinject.Fault{
		Stage: resilience.StageRepair, Kind: faultinject.NodeLimit,
	})
	s := New(Config{
		Workers: 1, Obs: obs.New(nil), Hook: inj, RetryMax: 2,
		now: clk.now,
		sleep: func(context.Context, time.Duration) error {
			clk.advance(2 * time.Minute) // backoff overshoots the deadline
			return nil
		},
	})
	defer shutdownServer(t, s)

	req := synthRequest()
	req.Timeout = time.Minute
	resp, err := s.Do(context.Background(), req)
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if !errors.Is(resp.Err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want to wrap context.DeadlineExceeded", resp.Err)
	}
	if !errors.Is(resp.Err, bdd.ErrNodeLimit) {
		t.Errorf("err = %v, want to keep the attempt's node-limit cause", resp.Err)
	}
	if !resp.Partial {
		t.Error("Partial flag lost across the deadline expiry")
	}
	if resp.Routing == nil {
		t.Fatal("salvaged table dropped by the deadline expiry")
	}
	if resp.Residual == 0 && !resp.ResidualUnknown {
		t.Error("partial table reports neither a residual nor unknown pricing")
	}
	if resp.Retries != 0 {
		t.Errorf("Retries = %d, want 0 (only attempt 1 ran)", resp.Retries)
	}
	if !IsRetryable(resp.Err) {
		t.Error("deadline expiry should stay retryable")
	}
}

// TestBackoffFullJitter pins the server's retry schedule to the shared
// helper's contract: delays uniform in [0, min(cap, base*2^n)) and
// reproducible from the seed (the full table test lives in internal/retry).
func TestBackoffFullJitter(t *testing.T) {
	const base, cap = 10 * time.Millisecond, 80 * time.Millisecond
	a := retry.New(base, cap, 7)
	ceil := []time.Duration{base, 2 * base, 4 * base, cap, cap, cap}
	var delays []time.Duration
	for attempt, c := range ceil {
		d := a.Delay(attempt)
		if d < 0 || d >= c {
			t.Errorf("Delay(%d) = %s, want in [0, %s)", attempt, d, c)
		}
		delays = append(delays, d)
	}
	// Same seed, same sequence.
	b := retry.New(base, cap, 7)
	for attempt, want := range delays {
		if got := b.Delay(attempt); got != want {
			t.Errorf("seeded replay diverged at attempt %d: %s != %s", attempt, got, want)
		}
	}
}
