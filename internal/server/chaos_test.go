package server

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"syrep/internal/bdd"
	"syrep/internal/obs"
	"syrep/internal/resilience"
	"syrep/internal/resilience/faultinject"
	"syrep/internal/retry"
)

// swapHook is a resilience.Hook whose inner hook the test swaps between
// chaos phases (the server's Hook is fixed at construction).
type swapHook struct {
	mu    sync.Mutex
	inner resilience.Hook
}

func (h *swapHook) Set(inner resilience.Hook) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.inner = inner
}

func (h *swapHook) At(stage resilience.Stage) error {
	h.mu.Lock()
	inner := h.inner
	h.mu.Unlock()
	if inner == nil {
		return nil
	}
	return inner.At(stage)
}

// TestChaosTrichotomy drives the whole robustness story through one server,
// deterministically: a healthy soak, a transient fault retried and served,
// sustained faults tripping the breaker into degraded service, a failed
// half-open probe reopening it, and a successful probe closing it again.
// Throughout, every accepted request gets exactly one response and no
// goroutine leaks (the suite runs under -race via `make serve-test`).
func TestChaosTrichotomy(t *testing.T) {
	faultinject.LeakCheck(t)
	hook := &swapHook{}
	o := obs.New(nil)
	var responses atomic.Int64
	s := New(Config{
		Workers:      1, // serialize breaker bookkeeping for exact assertions
		QueueDepth:   16,
		Hook:         hook,
		RetryMax:     1,
		Breaker:      retry.BreakerConfig{Threshold: 4, Cooldown: 50 * time.Millisecond, Probes: 1},
		Obs:          o,
		sleep:        func(context.Context, time.Duration) error { return nil },
		DrainTimeout: 2 * time.Second,
	})
	defer shutdownServer(t, s)

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	accepted := 0
	do := func(label string) *Response {
		t.Helper()
		resp, err := s.Do(ctx, synthRequest())
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		accepted++
		responses.Add(1)
		return resp
	}

	// Phase 1 — healthy soak: concurrent clean requests all succeed.
	var wg sync.WaitGroup
	var soakErr atomic.Value
	for i := 0; i < 8; i++ {
		tkt, err := s.Submit(synthRequest())
		if err != nil {
			t.Fatalf("soak submit %d: %v", i, err)
		}
		accepted++
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := tkt.Wait(ctx)
			if err != nil {
				soakErr.Store(err)
				return
			}
			responses.Add(1)
			if resp.Err != nil || !resp.Resilient {
				soakErr.Store(resp.Err)
			}
		}()
	}
	wg.Wait()
	if err := soakErr.Load(); err != nil {
		t.Fatalf("soak: %v", err)
	}
	if s.Breaker().State() != retry.BreakerClosed {
		t.Fatalf("breaker = %s after soak, want closed", s.Breaker().State())
	}

	// Phase 2 — transient: one memout, retried behind the scenes, served.
	hook.Set(faultinject.New(faultinject.Fault{
		Stage: resilience.StageHeuristic, Kind: faultinject.NodeLimit, Times: 1,
	}))
	resp := do("transient")
	if resp.Err != nil || resp.Retries != 1 || !resp.Resilient {
		t.Fatalf("transient phase: err=%v retries=%d resilient=%v, want a served retry",
			resp.Err, resp.Retries, resp.Resilient)
	}

	// Phase 3 — sustained faults: every attempt memouts. With RetryMax 1 each
	// request burns two attempts, so the 4-failure threshold trips inside the
	// second request; the third rides the degraded path.
	hook.Set(faultinject.New(faultinject.Fault{
		Stage: resilience.StageHeuristic, Kind: faultinject.NodeLimit,
	}))
	resp = do("sustained-1")
	if resp.Err == nil || !errors.Is(resp.Err, bdd.ErrNodeLimit) || resp.Degraded {
		t.Fatalf("sustained-1: err=%v degraded=%v, want a node-limit failure", resp.Err, resp.Degraded)
	}
	resp = do("sustained-2")
	if resp.Err == nil || resp.Degraded {
		t.Fatalf("sustained-2: err=%v degraded=%v, want the tripping failure", resp.Err, resp.Degraded)
	}
	if s.Breaker().State() != retry.BreakerOpen {
		t.Fatalf("breaker = %s after sustained faults, want open", s.Breaker().State())
	}
	resp = do("degraded")
	if !resp.Degraded || resp.Err != nil || resp.Routing == nil {
		t.Fatalf("degraded phase: degraded=%v err=%v, want a clean degraded table", resp.Degraded, resp.Err)
	}

	// Phase 4 — failed probe: the cooldown admits one half-open probe, the
	// fault is still there, and the breaker reopens; the same request then
	// falls back to the degraded path on its retry.
	time.Sleep(60 * time.Millisecond)
	resp = do("probe-fail")
	if !resp.Degraded {
		t.Fatalf("probe-fail: degraded=%v err=%v, want degraded fallback after the failed probe",
			resp.Degraded, resp.Err)
	}
	if s.Breaker().State() != retry.BreakerOpen {
		t.Fatalf("breaker = %s after failed probe, want open", s.Breaker().State())
	}

	// Phase 5 — recovery: the fault clears, the next probe succeeds, and the
	// breaker closes.
	hook.Set(nil)
	time.Sleep(60 * time.Millisecond)
	resp = do("recovery")
	if resp.Err != nil || resp.Degraded || !resp.Resilient {
		t.Fatalf("recovery: err=%v degraded=%v resilient=%v, want full service back",
			resp.Err, resp.Degraded, resp.Resilient)
	}
	if s.Breaker().State() != retry.BreakerClosed {
		t.Fatalf("breaker = %s after recovery, want closed", s.Breaker().State())
	}

	// The breaker walked exactly the scripted trajectory.
	want := []struct{ from, to retry.BreakerState }{
		{retry.BreakerClosed, retry.BreakerOpen},     // sustained faults
		{retry.BreakerOpen, retry.BreakerHalfOpen},   // cooldown
		{retry.BreakerHalfOpen, retry.BreakerOpen},   // failed probe
		{retry.BreakerOpen, retry.BreakerHalfOpen},   // second cooldown
		{retry.BreakerHalfOpen, retry.BreakerClosed}, // successful probe
	}
	got := s.Breaker().Transitions()
	if len(got) != len(want) {
		t.Fatalf("breaker transitions = %v, want %d", got, len(want))
	}
	for i, w := range want {
		if got[i].From != w.from || got[i].To != w.to {
			t.Errorf("transition %d = %s->%s, want %s->%s", i, got[i].From, got[i].To, w.from, w.to)
		}
	}

	// Exactly one response per accepted request, and the books agree.
	if responses.Load() != int64(accepted) {
		t.Errorf("responses = %d, accepted = %d; a request was dropped or duplicated",
			responses.Load(), accepted)
	}
	if got := o.Counter(MetricResponses).Load(); got != int64(accepted) {
		t.Errorf("%s = %d, want %d", MetricResponses, got, accepted)
	}
	if got := o.Counter(MetricAccepted).Load(); got != int64(accepted) {
		t.Errorf("%s = %d, want %d", MetricAccepted, got, accepted)
	}
}

// TestChaosSeededFaultPlans soaks the server against the seeded fault-plan
// generator: whatever a plan does to the pipeline, every request gets
// exactly one response, the worker survives, and a clean follow-up request
// is served. Cancel-kind plans are remapped to hard errors (the server owns
// its request contexts; there is no external cancel to bind).
func TestChaosSeededFaultPlans(t *testing.T) {
	faultinject.LeakCheck(t)
	for seed := int64(1); seed <= 6; seed++ {
		f := faultinject.PlanFromSeed(seed)
		if f.Kind == faultinject.Cancel {
			f = faultinject.Fault{Stage: f.Stage, Kind: faultinject.Error, Times: f.Times}
		}
		hook := &swapHook{}
		hook.Set(faultinject.New(f))
		s := New(Config{
			Workers:      1,
			Hook:         hook,
			RetryMax:     1,
			sleep:        func(context.Context, time.Duration) error { return nil },
			DrainTimeout: 2 * time.Second,
		})

		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		req := synthRequest()
		req.Strategy = resilience.Combined // reach every fault point
		resp, err := s.Do(ctx, req)
		if err != nil {
			t.Fatalf("seed %d: Do: %v", seed, err)
		}
		if resp.Err != nil && resp.Routing == nil && resp.Degraded {
			t.Errorf("seed %d: degraded response without a table", seed)
		}

		// The pool survived whatever the plan did: a clean request still works.
		hook.Set(nil)
		resp, err = s.Do(ctx, synthRequest())
		if err != nil || resp.Err != nil {
			t.Fatalf("seed %d: follow-up after fault: %v / %v", seed, err, resp.Err)
		}
		cancel()
		sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := s.Shutdown(sctx); err != nil {
			t.Fatalf("seed %d: shutdown: %v", seed, err)
		}
		scancel()
	}
}
