// Package retry is the fault policy shared by the synthesis server and the
// churn controller. It provides the repository's one retry-delay policy —
// exponential growth with full jitter (delay = uniform[0, min(cap,
// base·2^attempt))), the schedule that spreads retry storms thinnest for a
// loaded service — and the three-state circuit breaker (Breaker) both
// components consult before running the BDD pipeline. Keeping both here
// gives the server's request retries and the controller's repairs and
// southbound pushes a single, tested implementation instead of drifting
// copies.
//
// The RNG is seeded, so a component's delay sequence is reproducible from
// its configuration — the same property the fault-injection harness relies
// on everywhere else in the tree.
package retry

import (
	"context"
	"math/rand"
	"sync"
	"time"
)

// Backoff computes full-jitter exponential retry delays. Create with New;
// safe for concurrent use.
type Backoff struct {
	base, cap time.Duration

	mu  sync.Mutex
	rng *rand.Rand
}

// New returns a Backoff growing from base to cap. A zero seed is replaced by
// 1 so the zero configuration is still deterministic; non-positive base or
// cap yield zero delays (retry immediately), which callers choose explicitly
// rather than getting a hidden default.
func New(base, cap time.Duration, seed int64) *Backoff {
	if seed == 0 {
		seed = 1
	}
	return &Backoff{base: base, cap: cap, rng: rand.New(rand.NewSource(seed))}
}

// Delay returns the full-jitter delay for the given zero-based attempt:
// uniform in [0, min(cap, base·2^attempt)).
func (b *Backoff) Delay(attempt int) time.Duration {
	ceil := b.base
	for i := 0; i < attempt && ceil < b.cap; i++ {
		ceil *= 2
	}
	if ceil > b.cap {
		ceil = b.cap
	}
	if ceil <= 0 {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return time.Duration(b.rng.Int63n(int64(ceil)))
}

// Sleep blocks for d or until ctx is cancelled, returning the cancellation
// cause in the latter case. It is the context-aware sleep every retry loop
// needs next to Delay.
func Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return context.Cause(ctx)
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return context.Cause(ctx)
	}
}
