// Package controller is the churn-driven repair controller: a long-running
// reconciliation loop that consumes a stream of link up/down events and
// keeps per-destination forwarding tables warm, current, and pushed
// southbound.
//
// The event lifecycle is a strict trichotomy. Every accepted event ends in
// exactly one of
//
//   - a pushed delta (the table change it caused was delivered to the Sink,
//     possibly vacuously when the repaired table did not change),
//   - a flagged degraded table (the repair breaker was open or synthesis
//     failed transiently, so a heuristic-only table was pushed, marked
//     Degraded), or
//   - a clean typed error (dead-lettered push, unknown link, shutdown
//     rejection, or an unrepairable destination).
//
// Reconciliation is epoch-stamped: each state-changing event bumps the
// topology epoch, repairs are computed against an epoch snapshot, and a
// repair that is superseded by a newer event before its push is discarded —
// a stale table is never pushed. Flaps coalesce in the bounded inbox: a
// down/up/down burst on one link occupies one slot and collapses to its
// final state.
package controller

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"syrep/internal/cache"
	"syrep/internal/heuristic"
	"syrep/internal/journal"
	"syrep/internal/network"
	"syrep/internal/obs"
	"syrep/internal/resilience"
	"syrep/internal/retry"
	"syrep/internal/routing"
	"syrep/internal/verify"
)

// Outcome is the terminal state of a settled event.
type Outcome int

const (
	// OutcomePushed settles an event whose table changes were delivered
	// southbound (or required no change).
	OutcomePushed Outcome = iota + 1
	// OutcomeDegraded settles an event served by a heuristic-only table,
	// pushed flagged: it forwards, but carries no verified k-resilience.
	OutcomeDegraded
	// OutcomeError settles an event with a typed error: dead-letter,
	// unknown link, shutdown rejection, or an unrepairable destination.
	OutcomeError
)

func (o Outcome) String() string {
	switch o {
	case OutcomePushed:
		return "pushed"
	case OutcomeDegraded:
		return "degraded"
	case OutcomeError:
		return "error"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// Settlement is the terminal accounting record of one event.
type Settlement struct {
	// Event is the settled event (coalesced-away flap events settle too,
	// sharing the outcome of the event that superseded them).
	Event Event
	// Epoch is the topology epoch whose completion settled the event.
	Epoch uint64
	// Outcome is the trichotomy arm.
	Outcome Outcome
	// Err is the typed error of an OutcomeError settlement, nil otherwise.
	Err error
	// Latency is arrival-to-settlement wall time, the SLO quantity.
	Latency time.Duration
}

// ErrShuttingDown rejects events still queued when shutdown began. It is
// retryable against a replacement controller.
var ErrShuttingDown = errors.New("controller: shutting down, re-offer the event")

// ErrUnknownLink settles an event naming a link key absent from the base
// topology.
var ErrUnknownLink = errors.New("controller: unknown link key")

// Retryable reports whether an offer rejection or settlement error is worth
// re-offering later: backpressure and shutdown are; dead letters, unknown
// links, and repair failures are not (retrying the same event reproduces
// them).
func Retryable(err error) bool {
	return errors.Is(err, ErrOverflow) || errors.Is(err, ErrClosed) ||
		errors.Is(err, ErrShuttingDown)
}

// Config assembles a Controller. Base and Sink are required; everything
// else has serviceable defaults.
type Config struct {
	// Base is the reference topology with every link up. Events name its
	// links by canonical edge key.
	Base *network.Network
	// Dests names the destination nodes whose tables the controller keeps
	// current. Empty means every node of Base.
	Dests []string
	// K is the resilience level synthesized and repaired for (default 1).
	K int
	// Sink receives southbound deltas.
	Sink Sink
	// Cache, when non-nil, feeds warm-start repair: the nearest cached
	// table is adapted and endgame-filled instead of synthesizing cold.
	Cache *cache.Cache
	// Breaker configures the repair circuit breaker; consecutive transient
	// repair failures trip it, degrading repairs to heuristic-only tables
	// until the cooldown's half-open probes succeed.
	Breaker retry.BreakerConfig
	// InboxCapacity bounds distinct churning links queued (default 256);
	// beyond it Offer rejects with ErrOverflow.
	InboxCapacity int
	// QueueCapacity bounds deltas queued to the pusher (default 256).
	QueueCapacity int
	// RepairTimeout budgets one per-destination repair (default 5s).
	RepairTimeout time.Duration
	// PushTimeout budgets one sink contact (default 2s).
	PushTimeout time.Duration
	// PushAttempts caps sink contacts per delta, first try included
	// (default 4).
	PushAttempts int
	// RetryBase, RetryCap, and RetrySeed shape the pusher's seeded
	// full-jitter backoff (defaults 10ms, 500ms).
	RetryBase time.Duration
	RetryCap  time.Duration
	RetrySeed int64
	// DrainGrace bounds the shutdown flush of queued deltas (default 2s);
	// past it the rest dead-letter.
	DrainGrace time.Duration
	// WarmStartMaxDiff is the edge-diff radius of warm-start seeds
	// (default 4).
	WarmStartMaxDiff int
	// Strategy selects the synthesis strategy (default Combined).
	Strategy resilience.Strategy
	// Obs, when non-nil, observes the controller: event/repair/push
	// counters, inbox and epoch gauges, and the event-latency histogram.
	Obs *obs.Observer
	// Hook is the fault-injection test hook, consulted at the controller
	// stages (resilience.ControllerFaultPoints) and passed through to the
	// repair pipelines. Nil in production.
	Hook resilience.Hook
	// VerifyBackend is passed through to every repair pipeline (cold and
	// warm-start), routing churn-reconciliation verification through an
	// alternative backend such as the polynomial fast path. Nil means
	// brute force.
	VerifyBackend verify.Backend
	// OnSettle, when non-nil, receives every settlement as it happens, on
	// the goroutine that settled it. It must not call back into the
	// controller.
	OnSettle func(Settlement)
	// SnapshotW, when non-nil, receives the final obs snapshot as JSON,
	// written exactly once when Run returns.
	SnapshotW io.Writer
	// Journal, when non-nil, write-ahead journals every accepted
	// state-changing link event, computed delta, southbound ack, and
	// dead-letter before it takes downstream effect, making the controller
	// crash-recoverable (see Recover). The first journal failure latches:
	// Run drains and returns it, because a controller that cannot persist
	// its frontier must not keep absorbing events it would forget.
	Journal *journal.Journal
	// SnapshotEvery compacts the journal into a full-state snapshot after
	// this many appended records (default 512). Only meaningful with
	// Journal set.
	SnapshotEvery int

	// now is the test seam for time.
	now func() time.Time
}

func (cfg Config) withDefaults() Config {
	if cfg.K == 0 {
		cfg.K = 1
	}
	if cfg.InboxCapacity <= 0 {
		cfg.InboxCapacity = 256
	}
	if cfg.QueueCapacity <= 0 {
		cfg.QueueCapacity = 256
	}
	if cfg.RepairTimeout <= 0 {
		cfg.RepairTimeout = 5 * time.Second
	}
	if cfg.PushTimeout <= 0 {
		cfg.PushTimeout = 2 * time.Second
	}
	if cfg.PushAttempts <= 0 {
		cfg.PushAttempts = 4
	}
	if cfg.RetryBase <= 0 {
		cfg.RetryBase = 10 * time.Millisecond
	}
	if cfg.RetryCap <= 0 {
		cfg.RetryCap = 500 * time.Millisecond
	}
	if cfg.DrainGrace <= 0 {
		cfg.DrainGrace = 2 * time.Second
	}
	if cfg.WarmStartMaxDiff <= 0 {
		cfg.WarmStartMaxDiff = 4
	}
	if cfg.Strategy == 0 {
		cfg.Strategy = resilience.Combined
	}
	if cfg.SnapshotEvery <= 0 {
		cfg.SnapshotEvery = 512
	}
	if cfg.now == nil {
		cfg.now = time.Now
	}
	return cfg
}

// trackedEvent is an applied event awaiting settlement.
type trackedEvent struct {
	ev    Event
	epoch uint64
}

// epochAcct tracks one repair pass's outstanding pushes and the worst
// outcome seen across its repairs and deliveries. A pass at epoch E covers
// every event up to E (events applied between passes are delivered by the
// next pass), so draining the acct settles them all.
type epochAcct struct {
	epoch       uint64
	outstanding int
	worst       Outcome
	err         error
}

func (a *epochAcct) merge(o Outcome, err error) {
	if o > a.worst {
		a.worst = o
		a.err = err
	}
}

// repairResult is one destination's repair attempt.
type repairResult struct {
	table    *routing.Routing
	degraded bool
	warm     bool
	err      error
}

// Controller is the churn-driven repair controller. Construct with New,
// feed with Offer, drive with Run.
type Controller struct {
	cfg     Config
	dests   []string
	inbox   *inbox
	breaker *retry.Breaker
	push    *pusher

	mu         sync.Mutex
	epoch      uint64
	down       map[string]network.EdgeID
	dirty      map[string]bool
	lastPushed map[string]map[string]TableEntry
	pending    []trackedEvent
	accts      map[uint64]*epochAcct
	floor      uint64
	draining   bool

	// Journal-side state (all under mu; populated only with cfg.Journal
	// set). acked mirrors what the sink has acknowledged per destination —
	// the recovery baseline — distinct from lastPushed, which is
	// optimistic about in-flight deltas.
	acked         map[string]map[string]TableEntry
	ackedEpoch    map[string]uint64
	ackedDegraded map[string]bool
	walFatal      error
	walAppends    int

	flushOnce sync.Once
}

// New validates cfg and assembles a controller. Run must be called for
// events to make progress.
func New(cfg Config) (*Controller, error) {
	if cfg.Base == nil {
		return nil, errors.New("controller: Config.Base is required")
	}
	if cfg.Sink == nil {
		return nil, errors.New("controller: Config.Sink is required")
	}
	cfg = cfg.withDefaults()
	dests := cfg.Dests
	if len(dests) == 0 {
		for _, v := range cfg.Base.Nodes() {
			dests = append(dests, cfg.Base.NodeName(v))
		}
	}
	for _, d := range dests {
		if cfg.Base.NodeByName(d) < 0 {
			return nil, fmt.Errorf("controller: destination %q not in base topology", d)
		}
	}
	c := &Controller{
		cfg:        cfg,
		dests:      dests,
		inbox:      newInbox(cfg.InboxCapacity),
		breaker:    retry.NewBreaker(cfg.Breaker),
		down:       make(map[string]network.EdgeID),
		dirty:      make(map[string]bool),
		lastPushed: make(map[string]map[string]TableEntry),
		accts:      make(map[uint64]*epochAcct),

		acked:         make(map[string]map[string]TableEntry),
		ackedEpoch:    make(map[string]uint64),
		ackedDegraded: make(map[string]bool),
	}
	c.push = newPusher(cfg.Sink, cfg.QueueCapacity, c.pushResolved)
	c.push.backoff = retry.New(cfg.RetryBase, cfg.RetryCap, cfg.RetrySeed)
	c.push.timeout = cfg.PushTimeout
	c.push.attempts = cfg.PushAttempts
	c.push.hook = cfg.Hook
	c.push.obs = cfg.Obs
	return c, nil
}

func (c *Controller) obs() *obs.Observer { return c.cfg.Obs }

func (c *Controller) hookAt(s resilience.Stage) error {
	if c.cfg.Hook == nil {
		return nil
	}
	return c.cfg.Hook.At(s)
}

// Offer submits one link event. It never blocks: a full inbox rejects with
// ErrOverflow (back off and re-offer), a shut-down controller with
// ErrClosed. A nil error means the event will settle — watch OnSettle.
func (c *Controller) Offer(ev Event) error {
	if ev.At.IsZero() {
		ev.At = c.cfg.now()
	}
	if err := c.hookAt(resilience.StageCtlInbox); err != nil {
		c.obs().Counter(obs.CtlOverflows).Inc()
		return err
	}
	coalesced, err := c.inbox.offer(ev)
	if err != nil {
		c.obs().Counter(obs.CtlOverflows).Inc()
		return err
	}
	c.obs().Counter(obs.CtlEvents).Inc()
	if coalesced {
		c.obs().Counter(obs.CtlCoalesced).Inc()
	}
	c.obs().Gauge(obs.CtlInboxDepth).Set(int64(c.inbox.depth()))
	return nil
}

// Run drives the reconcile loop until ctx is cancelled, then drains:
// in-flight repairs and their pushes complete under DrainGrace, queued
// events settle as retryable rejections, and the obs snapshot (if
// configured) flushes exactly once. Run returns ctx's cause.
func (c *Controller) Run(ctx context.Context) error {
	defer c.flushSnapshot()
	pushCtx, pushCancel := context.WithCancel(context.Background())
	defer pushCancel()
	pusherExit := make(chan struct{})
	go func() {
		defer close(pusherExit)
		c.push.run(pushCtx)
	}()
	for {
		select {
		case <-ctx.Done():
			return c.shutdown(ctx, pushCancel, pusherExit)
		case <-c.inbox.wake:
			c.reconcile(ctx)
			if err := c.journalErr(); err != nil {
				_ = c.shutdown(ctx, pushCancel, pusherExit)
				return fmt.Errorf("controller: journal failed: %w", err)
			}
		}
	}
}

// reconcile processes inbox batches until the inbox is empty and every
// destination is clean, checking ctx between passes so shutdown latency is
// bounded by a single pass.
func (c *Controller) reconcile(ctx context.Context) {
	for ctx.Err() == nil && c.journalErr() == nil {
		batch := c.inbox.drain()
		c.obs().Gauge(obs.CtlInboxDepth).Set(0)
		if len(batch) == 0 && !c.hasDirty() {
			return
		}
		settlements, _ := c.applyBatch(batch)
		c.fire(settlements)
		if c.journalErr() != nil {
			// The applied events never became durable; stop before any
			// repair is computed against state a restart would forget.
			return
		}
		for ctx.Err() == nil {
			if c.repairPass(ctx) {
				break
			}
			// Stale pass: a superseding event landed mid-repair; the
			// discarded tables are recomputed against the new epoch.
		}
		c.walMaybeSnapshot()
	}
}

// applyBatch folds drained events into the down-link set. State-changing
// events bump the epoch and dirty every destination; no-ops and unknown
// links settle immediately. The second return tells whether the epoch
// advanced (the staleness signal for in-flight repairs).
func (c *Controller) applyBatch(batch []pendingEvent) ([]Settlement, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.now()
	before := c.epoch
	var immediate []Settlement
	for _, slot := range batch {
		events := append(slot.absorbed, slot.ev)
		e, ok := c.cfg.Base.EdgeByKey(slot.ev.Link)
		if !ok {
			err := fmt.Errorf("%w: %q", ErrUnknownLink, slot.ev.Link)
			for _, ev := range events {
				immediate = append(immediate, Settlement{
					Event: ev, Epoch: c.epoch, Outcome: OutcomeError,
					Err: err, Latency: now.Sub(ev.At),
				})
			}
			continue
		}
		_, isDown := c.down[slot.ev.Link]
		changed := slot.ev.Up == isDown
		if !changed {
			c.obs().Counter(obs.CtlNoops).Add(int64(len(events)))
			for _, ev := range events {
				immediate = append(immediate, Settlement{
					Event: ev, Epoch: c.epoch, Outcome: OutcomePushed,
					Latency: now.Sub(ev.At),
				})
			}
			continue
		}
		if slot.ev.Up {
			delete(c.down, slot.ev.Link)
		} else {
			c.down[slot.ev.Link] = e
		}
		c.epoch++
		c.obs().Gauge(obs.CtlEpoch).Set(int64(c.epoch))
		c.walAppendLocked(walRecord{T: "event", Link: slot.ev.Link, Up: slot.ev.Up, Epoch: c.epoch})
		for _, ev := range events {
			c.pending = append(c.pending, trackedEvent{ev: ev, epoch: c.epoch})
		}
		for _, d := range c.dests {
			c.dirty[d] = true
		}
	}
	// One fsync covers the whole batch; reconcile stops before repairing
	// if it failed, so nothing downstream ever builds on a lost event.
	c.walSyncLocked()
	return immediate, c.epoch != before
}

// passState snapshots what a repair pass needs: the epoch, the surviving
// edge set, and the dirty destinations, in deterministic order.
func (c *Controller) passState() (epoch uint64, drops []network.EdgeID, dests []string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range c.down {
		drops = append(drops, e)
	}
	sort.Slice(drops, func(i, j int) bool { return drops[i] < drops[j] })
	for d := range c.dirty {
		dests = append(dests, d)
	}
	sort.Strings(dests)
	return c.epoch, drops, dests
}

// repairPass repairs every dirty destination against the current epoch's
// topology. It returns false when a superseding event arrived mid-pass: the
// repaired tables are stale and discarded — never pushed — and the caller
// re-enters against the new epoch.
func (c *Controller) repairPass(ctx context.Context) bool {
	epoch, drops, dests := c.passState()
	if len(dests) == 0 {
		return true
	}
	topo, err := network.WithoutEdges(c.cfg.Base, drops)
	results := make(map[string]repairResult, len(dests))
	if err != nil {
		// Unbuildable topology (cannot happen with keys resolved on Base,
		// but a typed settlement beats a panic): every dest errors.
		for _, dest := range dests {
			results[dest] = repairResult{err: err}
		}
	} else {
		for _, dest := range dests {
			res := c.repairDest(ctx, topo, dest)
			if herr := c.hookAt(resilience.StageCtlEpoch); herr != nil {
				res = repairResult{err: herr}
			}
			if c.absorb() {
				c.obs().Counter(obs.CtlStale).Inc()
				return false
			}
			results[dest] = res
			if ctx.Err() != nil {
				break // drain: unprocessed dests stay dirty for rejection
			}
		}
	}
	jobs, settlements := c.finishPass(epoch, results)
	for _, j := range jobs {
		c.push.enqueue(j)
	}
	c.fire(settlements)
	return true
}

// absorb drains events that arrived mid-pass and reports whether they
// changed the topology — the epoch-race detection point (StageCtlEpoch's
// Call faults inject a superseding event just before it).
func (c *Controller) absorb() bool {
	batch := c.inbox.drain()
	if len(batch) == 0 {
		return false
	}
	settlements, changed := c.applyBatch(batch)
	c.fire(settlements)
	return changed
}

// finishPass turns a pass's repair results into queued deltas and
// settlement accounting for the pass epoch.
func (c *Controller) finishPass(epoch uint64, results map[string]repairResult) ([]pushJob, []Settlement) {
	dests := make([]string, 0, len(results))
	for d := range results {
		dests = append(dests, d)
	}
	sort.Strings(dests)
	c.mu.Lock()
	defer c.mu.Unlock()
	acct := c.acctLocked(epoch)
	var jobs []pushJob
	for _, dest := range dests {
		res := results[dest]
		delete(c.dirty, dest)
		if res.err != nil {
			c.obs().Counter(obs.CtlErrors).Inc()
			acct.merge(OutcomeError, res.err)
			continue
		}
		delta, next := buildDelta(dest, epoch, res.degraded, c.lastPushed[dest], res.table)
		if delta.Empty() {
			if res.degraded {
				acct.merge(OutcomeDegraded, nil)
			}
			continue
		}
		c.lastPushed[dest] = next
		acct.outstanding++
		c.walAppendLocked(walRecord{T: "delta", Delta: &delta})
		jobs = append(jobs, pushJob{delta: delta})
		c.obs().Counter(obs.CtlApplied).Inc()
	}
	// Deltas must be durable before the sink can see them — the invariant
	// that keeps recovered epochs ≥ sink epochs. On journal failure the
	// jobs are withheld and their events settle as errors; the run loop
	// then surfaces the latched failure and drains.
	c.walSyncLocked()
	if c.walFatal != nil {
		acct.merge(OutcomeError, fmt.Errorf("controller: journal failed: %w", c.walFatal))
		for range jobs {
			acct.outstanding--
		}
		jobs = nil
	}
	return jobs, c.settleLocked()
}

func (c *Controller) acctLocked(epoch uint64) *epochAcct {
	a, ok := c.accts[epoch]
	if !ok {
		a = &epochAcct{epoch: epoch, worst: OutcomePushed}
		c.accts[epoch] = a
	}
	return a
}

// pushResolved is the pusher's result callback: push outcomes merge into
// their epoch's accounting, and a dead-letter re-baselines the destination
// (next delta becomes a full snapshot) and re-dirties it for resync.
func (c *Controller) pushResolved(j pushJob, err error) {
	d := j.delta
	settlements, resync := c.resolveLocked(d, err)
	c.fire(settlements)
	if resync {
		c.inbox.signal()
	}
}

func (c *Controller) resolveLocked(d Delta, err error) ([]Settlement, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	a := c.accts[d.Epoch]
	if a != nil {
		a.outstanding--
	}
	resync := false
	switch {
	case errors.Is(err, errDuplicatePush):
		// Below the recovered ack watermark: the sink already holds this
		// state, so the skip settles as delivered without touching the
		// acked baseline (nothing new was acknowledged).
	case err != nil:
		if a != nil {
			a.merge(OutcomeError, err)
		}
		c.deadLocked(d, err, deadAttempts(err))
		delete(c.lastPushed, d.Dest)
		if !c.draining {
			c.dirty[d.Dest] = true
			resync = true
		}
	default:
		c.ackLocked(d)
		if d.Degraded {
			if a != nil {
				a.merge(OutcomeDegraded, nil)
			}
		}
	}
	return c.settleLocked(), resync
}

// deadAttempts extracts the attempt count from a dead-letter error for the
// journal record; non-dead-letter failures report zero.
func deadAttempts(err error) int {
	var dl *DeadLetterError
	if errors.As(err, &dl) {
		return dl.Attempts
	}
	return 0
}

// settleLocked advances the settlement floor: pass accounts drain in epoch
// order (the pusher is FIFO), and each drained account settles every still-
// pending event up to its pass epoch with the account's worst outcome — the
// pass that actually delivered those events' state.
func (c *Controller) settleLocked() []Settlement {
	now := c.cfg.now()
	var out []Settlement
	for next := c.lowestAcct(); next != nil && next.outstanding == 0; next = c.lowestAcct() {
		delete(c.accts, next.epoch)
		keep := c.pending[:0]
		for _, te := range c.pending {
			if te.epoch > next.epoch {
				keep = append(keep, te)
				continue
			}
			out = append(out, Settlement{
				Event: te.ev, Epoch: next.epoch, Outcome: next.worst, Err: next.err,
				Latency: now.Sub(te.ev.At),
			})
		}
		c.pending = keep
		if next.epoch > c.floor {
			c.floor = next.epoch
		}
	}
	return out
}

// lowestAcct returns the open pass account with the lowest epoch, nil when
// none remain.
func (c *Controller) lowestAcct() *epochAcct {
	var next *epochAcct
	for _, a := range c.accts {
		if next == nil || a.epoch < next.epoch {
			next = a
		}
	}
	return next
}

// fire delivers settlements: the latency histogram observes each one, and
// the OnSettle callback (if any) runs outside the controller's lock.
func (c *Controller) fire(ss []Settlement) {
	if len(ss) == 0 {
		return
	}
	h := c.obs().Histogram(obs.CtlEventLatency)
	for _, s := range ss {
		h.Observe(s.Latency)
		if c.cfg.OnSettle != nil {
			c.cfg.OnSettle(s)
		}
	}
}

func (c *Controller) hasDirty() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.dirty) > 0
}

// shutdown drains the controller: the inbox closes (future offers reject),
// queued deltas flush under DrainGrace (then dead-letter), and everything
// still unsettled rejects retryably.
func (c *Controller) shutdown(ctx context.Context, pushCancel context.CancelFunc, pusherExit chan struct{}) error {
	c.inbox.close()
	c.setDraining()
	close(c.push.queue)
	grace := time.NewTimer(c.cfg.DrainGrace)
	defer grace.Stop()
	select {
	case <-pusherExit:
	case <-grace.C:
		pushCancel()
		<-pusherExit
	}
	c.fire(c.rejectRemaining())
	return context.Cause(ctx)
}

func (c *Controller) setDraining() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.draining = true
}

// rejectRemaining settles every event the drain could not serve — queued
// inbox slots and pending events whose epochs never completed — with the
// retryable ErrShuttingDown.
func (c *Controller) rejectRemaining() []Settlement {
	leftovers := c.inbox.drain()
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.now()
	var out []Settlement
	for _, te := range c.pending {
		out = append(out, Settlement{
			Event: te.ev, Epoch: te.epoch, Outcome: OutcomeError,
			Err: ErrShuttingDown, Latency: now.Sub(te.ev.At),
		})
	}
	c.pending = nil
	for _, slot := range leftovers {
		for _, ev := range append(slot.absorbed, slot.ev) {
			out = append(out, Settlement{
				Event: ev, Epoch: c.epoch, Outcome: OutcomeError,
				Err: ErrShuttingDown, Latency: now.Sub(ev.At),
			})
		}
	}
	return out
}

// flushSnapshot writes the final obs snapshot exactly once, however Run
// exits.
func (c *Controller) flushSnapshot() {
	c.flushOnce.Do(func() {
		if c.cfg.Obs == nil || c.cfg.SnapshotW == nil {
			return
		}
		_ = c.cfg.Obs.Snapshot().WriteJSON(c.cfg.SnapshotW)
	})
}

// Epoch returns the current topology epoch.
func (c *Controller) Epoch() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epoch
}

// DeadLetters returns the pusher's retained dead-letter queue.
func (c *Controller) DeadLetters() []DeadLetter { return c.push.deadLetters() }

// repairDest computes one destination's table against topo: warm-start from
// the cache when a near seed exists, cold synthesis otherwise, and a
// heuristic-only degraded table when the breaker is open or synthesis fails
// transiently. A destination that not even the heuristic can serve is the
// error arm of the trichotomy.
func (c *Controller) repairDest(ctx context.Context, topo *network.Network, dest string) repairResult {
	o := c.obs()
	o.Counter(obs.CtlRepairs).Inc()
	if err := c.hookAt(resilience.StageCtlRepair); err != nil {
		return repairResult{err: err}
	}
	destID := topo.NodeByName(dest)
	if destID < 0 {
		return repairResult{err: fmt.Errorf("controller: destination %q not in topology", dest)}
	}
	sctx, end := o.StartStage(ctx, string(resilience.StageCtlRepair))
	defer end()
	if !c.breaker.Allow(c.cfg.now()) {
		return c.degrade(sctx, topo, destID, nil)
	}
	rctx, cancel := context.WithTimeout(sctx, c.cfg.RepairTimeout)
	defer cancel()
	opts := resilience.Options{
		Strategy:      c.cfg.Strategy,
		Timeout:       c.cfg.RepairTimeout,
		Obs:           c.cfg.Obs,
		Hook:          c.cfg.Hook,
		VerifyBackend: c.cfg.VerifyBackend,
	}
	if c.cfg.Cache != nil {
		if r, _, err := resilience.WarmRepair(rctx, c.cfg.Cache, topo, destID, c.cfg.K, c.cfg.WarmStartMaxDiff, opts); err == nil {
			c.breaker.Record(true, c.cfg.now())
			o.Counter(obs.CtlWarmRepairs).Inc()
			return repairResult{table: r, warm: true}
		}
	}
	r, _, err := resilience.Synthesize(rctx, topo, destID, c.cfg.K, opts)
	if err == nil {
		c.breaker.Record(true, c.cfg.now())
		c.cachePut(topo, r)
		o.Counter(obs.CtlColdSynths).Inc()
		return repairResult{table: r}
	}
	if resilience.IsTransient(err) {
		c.breaker.Record(false, c.cfg.now())
	}
	if p, ok := resilience.AsPartial(err); ok {
		// A salvaged partial table beats the heuristic fallback: it is
		// complete and usually closer to resilient. Still flagged degraded.
		c.obs().Counter(obs.CtlDegraded).Inc()
		return repairResult{table: p.Routing, degraded: true}
	}
	if ctx.Err() != nil {
		return repairResult{err: err}
	}
	return c.degrade(sctx, topo, destID, err)
}

// cachePut stores a resilient table for the next warm repair.
func (c *Controller) cachePut(topo *network.Network, r *routing.Routing) {
	if c.cfg.Cache == nil {
		return
	}
	key := resilience.CacheKey(topo, r.Dest(), c.cfg.K, c.cfg.Strategy)
	c.cfg.Cache.Put(key, &cache.Entry{Net: topo, Routing: r, Resilient: true})
}

// degrade serves the breaker-open (or synthesis-failed) path: a heuristic
// skipping table, generated under its own small budget, pushed flagged.
func (c *Controller) degrade(ctx context.Context, topo *network.Network, destID network.NodeID, cause error) repairResult {
	hctx, cancel := context.WithTimeout(ctx, time.Second)
	defer cancel()
	r, err := heuristic.Generate(hctx, topo, destID)
	if err != nil {
		if cause != nil {
			return repairResult{err: errors.Join(cause, err)}
		}
		return repairResult{err: err}
	}
	c.obs().Counter(obs.CtlDegraded).Inc()
	return repairResult{table: r, degraded: true}
}
