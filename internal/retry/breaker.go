package retry

import (
	"fmt"
	"sync"
	"time"
)

// BreakerState is the circuit breaker's position.
type BreakerState int32

const (
	// BreakerClosed: the service is healthy; requests run the full pipeline.
	BreakerClosed BreakerState = iota
	// BreakerOpen: sustained transient failures (or memory pressure) tripped
	// the breaker; callers serve a degraded heuristic-only table until the
	// cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen: the cooldown elapsed; a bounded number of probe
	// requests run the full pipeline. Enough successes close the breaker,
	// any failure reopens it.
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return fmt.Sprintf("BreakerState(%d)", int32(s))
	}
}

// BreakerConfig tunes the circuit breaker. Zero fields take the defaults.
type BreakerConfig struct {
	// Threshold is the number of consecutive transient failures (while
	// closed) that trips the breaker (default 5).
	Threshold int
	// Cooldown is how long the breaker stays open before admitting
	// half-open probes (default 5s).
	Cooldown time.Duration
	// Probes is both the number of concurrent full-pipeline probes admitted
	// while half-open and the number of successes required to close
	// (default 2).
	Probes int
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.Threshold <= 0 {
		c.Threshold = 5
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 5 * time.Second
	}
	if c.Probes <= 0 {
		c.Probes = 2
	}
	return c
}

// BreakerTransition is one recorded state change, for tests and operators.
type BreakerTransition struct {
	From, To BreakerState
	At       time.Time
}

// maxTransitions bounds the retained transition history; a flapping breaker
// must not grow memory without bound.
const maxTransitions = 64

// Breaker is a deterministic three-state circuit breaker. All time is passed
// in by the caller, so tests drive it with a fake clock. It is safe for
// concurrent use.
//
// The breaker tracks *service health*, not instance solvability: only
// transient failures (resource exhaustion, budget expiry — see
// resilience.IsTransient) count as failures. A permanent error means the
// pipeline ran fine and the instance itself was the problem, so it counts
// as a success for breaker purposes.
type Breaker struct {
	cfg BreakerConfig

	mu        sync.Mutex
	state     BreakerState
	failures  int // consecutive transient failures while closed
	openedAt  time.Time
	inflight  int // reserved half-open probe slots
	successes int // successful probes this half-open episode
	history   []BreakerTransition

	onTransition func(from, to BreakerState) // see OnTransition
}

// NewBreaker builds a closed breaker.
func NewBreaker(cfg BreakerConfig) *Breaker {
	return &Breaker{cfg: cfg.withDefaults()}
}

// OnTransition installs f to observe every later state change, e.g. to
// drive a state gauge. f runs under the breaker lock: it must be fast and
// must not call back into the breaker.
func (b *Breaker) OnTransition(f func(from, to BreakerState)) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.onTransition = f
}

// State returns the current position.
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Transitions returns the recorded state changes, oldest first (the history
// is truncated to the most recent maxTransitions entries).
func (b *Breaker) Transitions() []BreakerTransition {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]BreakerTransition(nil), b.history...)
}

func (b *Breaker) transition(to BreakerState, now time.Time) {
	from := b.state
	if from == to {
		return
	}
	b.state = to
	if len(b.history) == maxTransitions {
		b.history = append(b.history[:0], b.history[1:]...)
	}
	b.history = append(b.history, BreakerTransition{From: from, To: to, At: now})
	if b.onTransition != nil {
		b.onTransition(from, to)
	}
}

// Allow reports whether a request may run the full pipeline now. While open
// it returns false (serve degraded) until the cooldown elapses, at which
// point the breaker moves to half-open and admits up to Probes concurrent
// probe requests; beyond the probe budget it again returns false. Every
// Allow(true) in half-open reserves a probe slot that the matching Record
// releases.
func (b *Breaker) Allow(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if now.Sub(b.openedAt) < b.cfg.Cooldown {
			return false
		}
		b.transition(BreakerHalfOpen, now)
		b.successes = 0
		b.inflight = 1
		return true
	default: // BreakerHalfOpen
		if b.inflight >= b.cfg.Probes {
			return false
		}
		b.inflight++
		return true
	}
}

// Record reports the outcome of a full-pipeline run admitted by Allow.
// Closed: a failure streak of Threshold trips the breaker. Half-open: any
// failure reopens it, Probes successes close it. Outcomes arriving after the
// state already moved on (a slow request finishing after a trip) are
// ignored.
func (b *Breaker) Record(ok bool, now time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		if ok {
			b.failures = 0
			return
		}
		b.failures++
		if b.failures >= b.cfg.Threshold {
			b.transition(BreakerOpen, now)
			b.openedAt = now
			b.failures = 0
		}
	case BreakerHalfOpen:
		if b.inflight > 0 {
			b.inflight--
		}
		if !ok {
			b.transition(BreakerOpen, now)
			b.openedAt = now
			return
		}
		b.successes++
		if b.successes >= b.cfg.Probes {
			b.transition(BreakerClosed, now)
			b.failures = 0
		}
	case BreakerOpen:
		// Late result from before the trip; the cooldown clock rules.
	}
}

// Release hands back a half-open probe slot that Allow reserved for an
// attempt that ended without an outcome worth recording — a warm-start
// repair that found no usable seed and defers to the cold pipeline, which
// takes its own slot. Outside half-open it does nothing.
func (b *Breaker) Release() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerHalfOpen && b.inflight > 0 {
		b.inflight--
	}
}

// Trip forces the breaker open regardless of state — the memory-pressure
// path. The cooldown restarts from now.
func (b *Breaker) Trip(now time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.transition(BreakerOpen, now)
	b.openedAt = now
	b.failures = 0
}
