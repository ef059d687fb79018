package retry

import (
	"testing"
	"time"
)

// fakeClock is a manually advanced clock for deterministic breaker tests.
type fakeClock struct{ t time.Time }

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) now() time.Time                    { return c.t }
func (c *fakeClock) advance(d time.Duration) time.Time { c.t = c.t.Add(d); return c.t }

func wantState(t *testing.T, b *Breaker, want BreakerState) {
	t.Helper()
	if got := b.State(); got != want {
		t.Fatalf("breaker state = %s, want %s", got, want)
	}
}

// TestBreakerTripAndRecover walks the full deterministic state machine:
// consecutive transient failures trip it, the cooldown gates half-open,
// probe successes close it.
func TestBreakerTripAndRecover(t *testing.T) {
	clk := newFakeClock()
	b := NewBreaker(BreakerConfig{Threshold: 3, Cooldown: time.Minute, Probes: 2})

	// Interleaved successes keep resetting the failure streak.
	for i := 0; i < 9; i++ {
		b.Record(i%3 == 2, clk.now()) // fail, fail, ok, fail, fail, ok, ...
	}
	wantState(t, b, BreakerClosed)

	// Three consecutive failures trip it.
	for i := 0; i < 3; i++ {
		if !b.Allow(clk.now()) {
			t.Fatal("closed breaker refused a request")
		}
		b.Record(false, clk.now())
	}
	wantState(t, b, BreakerOpen)

	// Open: refuse until the cooldown elapses.
	if b.Allow(clk.advance(59 * time.Second)) {
		t.Fatal("open breaker allowed a request before the cooldown")
	}
	// Cooldown elapsed: the first Allow moves to half-open and is a probe.
	if !b.Allow(clk.advance(2 * time.Second)) {
		t.Fatal("breaker refused the first half-open probe")
	}
	wantState(t, b, BreakerHalfOpen)
	// The probe budget is 2: one more is admitted, a third refused.
	if !b.Allow(clk.now()) {
		t.Fatal("breaker refused the second half-open probe")
	}
	if b.Allow(clk.now()) {
		t.Fatal("breaker exceeded its half-open probe budget")
	}
	// Both probes succeed: closed.
	b.Record(true, clk.now())
	b.Record(true, clk.now())
	wantState(t, b, BreakerClosed)

	want := []struct{ from, to BreakerState }{
		{BreakerClosed, BreakerOpen},
		{BreakerOpen, BreakerHalfOpen},
		{BreakerHalfOpen, BreakerClosed},
	}
	got := b.Transitions()
	if len(got) != len(want) {
		t.Fatalf("transitions = %v, want %d entries", got, len(want))
	}
	for i, w := range want {
		if got[i].From != w.from || got[i].To != w.to {
			t.Errorf("transition %d = %s->%s, want %s->%s", i, got[i].From, got[i].To, w.from, w.to)
		}
	}
}

// TestBreakerHalfOpenFailureReopens: any failed probe reopens the breaker
// and restarts the cooldown.
func TestBreakerHalfOpenFailureReopens(t *testing.T) {
	clk := newFakeClock()
	b := NewBreaker(BreakerConfig{Threshold: 1, Cooldown: time.Minute, Probes: 2})
	b.Record(false, clk.now())
	wantState(t, b, BreakerOpen)
	if !b.Allow(clk.advance(time.Minute)) {
		t.Fatal("breaker refused a probe after the cooldown")
	}
	b.Record(false, clk.now())
	wantState(t, b, BreakerOpen)
	// The cooldown restarted at the failed probe.
	if b.Allow(clk.advance(30 * time.Second)) {
		t.Fatal("reopened breaker allowed a request half way into the fresh cooldown")
	}
	if !b.Allow(clk.advance(31 * time.Second)) {
		t.Fatal("breaker refused a probe after the fresh cooldown")
	}
}

// TestBreakerTrip: the memory-pressure path forces open from any state.
func TestBreakerTrip(t *testing.T) {
	clk := newFakeClock()
	b := NewBreaker(BreakerConfig{Threshold: 100, Cooldown: time.Minute, Probes: 1})
	wantState(t, b, BreakerClosed)
	b.Trip(clk.now())
	wantState(t, b, BreakerOpen)
	// Tripping again while open restarts the cooldown.
	clk.advance(50 * time.Second)
	b.Trip(clk.now())
	if b.Allow(clk.advance(30 * time.Second)) {
		t.Fatal("re-tripped breaker allowed a request inside the restarted cooldown")
	}
}

// TestBreakerRelease: a released probe slot is free for the next probe and
// counts as neither success nor failure; outside half-open Release is a
// no-op.
func TestBreakerRelease(t *testing.T) {
	clk := newFakeClock()
	b := NewBreaker(BreakerConfig{Threshold: 1, Cooldown: time.Minute, Probes: 1})
	b.Release()
	wantState(t, b, BreakerClosed)
	b.Trip(clk.now())
	if !b.Allow(clk.advance(time.Minute)) {
		t.Fatal("breaker refused the first half-open probe")
	}
	if b.Allow(clk.now()) {
		t.Fatal("breaker admitted a probe beyond its budget")
	}
	b.Release()
	wantState(t, b, BreakerHalfOpen)
	if !b.Allow(clk.now()) {
		t.Fatal("released probe slot was not handed to the next probe")
	}
	b.Record(true, clk.now())
	wantState(t, b, BreakerClosed)
}

// TestBreakerLateResultIgnored: an outcome recorded after the breaker moved
// on (a slow request finishing after a trip) must not corrupt the state.
func TestBreakerLateResultIgnored(t *testing.T) {
	clk := newFakeClock()
	b := NewBreaker(BreakerConfig{Threshold: 1, Cooldown: time.Minute, Probes: 1})
	b.Record(false, clk.now())
	wantState(t, b, BreakerOpen)
	b.Record(true, clk.now()) // late success from before the trip
	wantState(t, b, BreakerOpen)
}

// TestBreakerHistoryBounded: a flapping breaker must not grow its history
// without bound.
func TestBreakerHistoryBounded(t *testing.T) {
	clk := newFakeClock()
	b := NewBreaker(BreakerConfig{Threshold: 1, Cooldown: time.Millisecond, Probes: 1})
	for i := 0; i < 10*maxTransitions; i++ {
		b.Record(false, clk.now())        // trip
		b.Allow(clk.advance(time.Second)) // half-open
		b.Record(true, clk.now())         // close
	}
	if n := len(b.Transitions()); n > maxTransitions {
		t.Errorf("history length = %d, want <= %d", n, maxTransitions)
	}
}
