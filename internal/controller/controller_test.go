package controller

import (
	"context"
	"errors"
	"testing"
	"time"

	"syrep/internal/obs"
	"syrep/internal/resilience"
	"syrep/internal/resilience/faultinject"
	"syrep/internal/retry"
)

// harness runs one controller with a MemSink and a settlement channel.
type harness struct {
	t       *testing.T
	ctl     *Controller
	sink    *MemSink
	obs     *obs.Observer
	settle  chan Settlement
	links   []string
	cancel  context.CancelFunc
	exit    chan error
	exited  bool
	stopped bool
}

// stop cancels Run and waits for it to exit (idempotent).
func (h *harness) stop() {
	if h.stopped {
		return
	}
	h.stopped = true
	h.cancel()
	if h.exited {
		return
	}
	select {
	case <-h.exit:
		h.exited = true
	case <-time.After(30 * time.Second):
		h.t.Error("controller did not exit")
	}
}

// startCtl boots a controller on SimNetwork(6) watching s0, applies mod to
// the config, and runs it until the test ends.
func startCtl(t *testing.T, mod func(*Config)) *harness {
	t.Helper()
	base, err := SimNetwork(6)
	if err != nil {
		t.Fatal(err)
	}
	h := &harness{
		t:      t,
		sink:   NewMemSink(),
		obs:    obs.New(nil),
		settle: make(chan Settlement, 4096),
		links:  base.EdgeKeys(),
	}
	cfg := Config{
		Base:          base,
		Dests:         []string{"s0"},
		K:             1,
		Sink:          h.sink,
		Breaker:       retry.BreakerConfig{Threshold: 3, Cooldown: time.Minute},
		RepairTimeout: 2 * time.Second,
		PushAttempts:  3,
		RetryBase:     time.Millisecond,
		RetryCap:      4 * time.Millisecond,
		Obs:           h.obs,
		OnSettle:      func(s Settlement) { h.settle <- s },
	}
	if mod != nil {
		mod(&cfg)
	}
	h.ctl, err = New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	h.cancel = cancel
	h.exit = make(chan error, 1)
	go func() { h.exit <- h.ctl.Run(ctx) }()
	t.Cleanup(h.stop)
	return h
}

// wait collects n settlements or fails.
func (h *harness) wait(t *testing.T, n int) []Settlement {
	t.Helper()
	out := make([]Settlement, 0, n)
	deadline := time.After(30 * time.Second)
	for len(out) < n {
		select {
		case s := <-h.settle:
			out = append(out, s)
		case <-deadline:
			t.Fatalf("timed out with %d/%d settlements", len(out), n)
		}
	}
	return out
}

// TestControllerPushedLifecycle: a link-down event repairs the watched
// destination, pushes a delta, and settles pushed; the sink's reconstructed
// table matches the controller's. Restoring the link settles the same way.
func TestControllerPushedLifecycle(t *testing.T) {
	h := startCtl(t, nil)
	link := h.links[0]

	if err := h.ctl.Offer(Event{Link: link, Up: false}); err != nil {
		t.Fatal(err)
	}
	s := h.wait(t, 1)[0]
	if s.Outcome != OutcomePushed || s.Err != nil {
		t.Fatalf("settlement = %+v, want pushed", s)
	}
	if s.Epoch != 1 || h.ctl.Epoch() != 1 {
		t.Errorf("epoch = %d/%d, want 1", s.Epoch, h.ctl.Epoch())
	}
	pushes := h.sink.Pushes()
	if len(pushes) != 1 || !pushes[0].Snapshot || pushes[0].Dest != "s0" {
		t.Fatalf("pushes = %+v, want one snapshot for s0", pushes)
	}
	if pushes[0].Degraded {
		t.Error("healthy repair pushed a degraded table")
	}
	if len(h.sink.Table("s0")) == 0 {
		t.Error("sink table empty after snapshot")
	}

	if err := h.ctl.Offer(Event{Link: link, Up: true}); err != nil {
		t.Fatal(err)
	}
	s = h.wait(t, 1)[0]
	if s.Outcome != OutcomePushed || s.Epoch != 2 {
		t.Fatalf("restore settlement = %+v, want pushed at epoch 2", s)
	}
	if got := h.sink.Epoch("s0"); got != 2 {
		t.Errorf("sink epoch = %d, want 2", got)
	}
	snap := h.obs.Snapshot()
	if snap.Counter(obs.CtlColdSynths)+snap.Counter(obs.CtlWarmRepairs) < 2 {
		t.Error("repairs not counted")
	}
	if snap.Histogram(obs.CtlEventLatency).Count != 2 {
		t.Errorf("latency histogram count = %d, want 2", snap.Histogram(obs.CtlEventLatency).Count)
	}
}

// TestControllerNoop: an event that does not change link state settles
// pushed immediately — no epoch bump, no repair, no sink contact.
func TestControllerNoop(t *testing.T) {
	h := startCtl(t, nil)
	if err := h.ctl.Offer(Event{Link: h.links[0], Up: true}); err != nil { // already up
		t.Fatal(err)
	}
	s := h.wait(t, 1)[0]
	if s.Outcome != OutcomePushed || s.Epoch != 0 {
		t.Fatalf("settlement = %+v, want pushed at epoch 0", s)
	}
	if h.ctl.Epoch() != 0 {
		t.Errorf("epoch = %d, want 0", h.ctl.Epoch())
	}
	if n := len(h.sink.Pushes()); n != 0 {
		t.Errorf("%d pushes for a no-op", n)
	}
	if h.obs.Snapshot().Counter(obs.CtlNoops) != 1 {
		t.Error("CtlNoops not counted")
	}
}

// TestControllerUnknownLink: an event naming a link absent from the base
// topology settles as a typed, non-retryable error.
func TestControllerUnknownLink(t *testing.T) {
	h := startCtl(t, nil)
	if err := h.ctl.Offer(Event{Link: "no-such-link", Up: false}); err != nil {
		t.Fatal(err)
	}
	s := h.wait(t, 1)[0]
	if s.Outcome != OutcomeError || !errors.Is(s.Err, ErrUnknownLink) {
		t.Fatalf("settlement = %+v, want ErrUnknownLink", s)
	}
	if Retryable(s.Err) {
		t.Error("unknown link must not be retryable")
	}
}

// TestControllerDegradedOnOpenBreaker: with the repair breaker open, events
// settle degraded and the pushed table is flagged — the controller keeps
// forwarding state flowing on the heuristic path.
func TestControllerDegradedOnOpenBreaker(t *testing.T) {
	h := startCtl(t, nil)
	h.ctl.breaker.Trip(time.Now())

	if err := h.ctl.Offer(Event{Link: h.links[0], Up: false}); err != nil {
		t.Fatal(err)
	}
	s := h.wait(t, 1)[0]
	if s.Outcome != OutcomeDegraded || s.Err != nil {
		t.Fatalf("settlement = %+v, want degraded", s)
	}
	pushes := h.sink.Pushes()
	if len(pushes) != 1 || !pushes[0].Degraded {
		t.Fatalf("pushes = %+v, want one degraded delta", pushes)
	}
	snap := h.obs.Snapshot()
	if snap.Counter(obs.CtlDegraded) != 1 {
		t.Errorf("CtlDegraded = %d, want 1", snap.Counter(obs.CtlDegraded))
	}
	if snap.Counter(obs.CtlColdSynths) != 0 {
		t.Error("cold synthesis ran while the breaker was open")
	}
}

// TestControllerEpochRace: a superseding event injected between a completed
// repair and its push (StageCtlEpoch Call fault) discards the stale pass —
// nothing from the superseded epoch is ever pushed — and both events settle
// against the new epoch.
func TestControllerEpochRace(t *testing.T) {
	faultinject.LeakCheck(t)
	var h *harness
	inj := faultinject.New(faultinject.Fault{
		Stage: resilience.StageCtlEpoch,
		Kind:  faultinject.Call,
		Times: 1,
		Do: func() {
			// Runs on the reconcile goroutine mid-pass: a second link goes
			// down before the first repair's delta is queued.
			if err := h.ctl.Offer(Event{Link: h.links[1], Up: false}); err != nil {
				t.Errorf("racing offer: %v", err)
			}
		},
	})
	h = startCtl(t, func(cfg *Config) { cfg.Hook = inj })

	if err := h.ctl.Offer(Event{Link: h.links[0], Up: false}); err != nil {
		t.Fatal(err)
	}
	ss := h.wait(t, 2)
	for _, s := range ss {
		if s.Outcome != OutcomePushed {
			t.Errorf("settlement = %+v, want pushed", s)
		}
		if s.Epoch != 2 {
			t.Errorf("settled at epoch %d, want 2 (the superseding epoch)", s.Epoch)
		}
	}
	snap := h.obs.Snapshot()
	if snap.Counter(obs.CtlStale) < 1 {
		t.Error("epoch race not detected: CtlStale == 0")
	}
	if snap.Counter(obs.CtlDeadLetters) != 0 {
		t.Error("dead letters during a clean race")
	}
	for i, d := range h.sink.Pushes() {
		if d.Epoch != 2 {
			t.Errorf("push %d carries stale epoch %d, want 2 only", i, d.Epoch)
		}
	}
	// The settled table must reflect both failures: no rule references
	// either downed link.
	down := map[string]bool{h.links[0]: true, h.links[1]: true}
	for k, e := range h.sink.Table("s0") {
		for _, ref := range append([]string{e.In}, e.Prio...) {
			if down[ref] {
				t.Errorf("final table entry %q references downed link %q", k, ref)
			}
		}
	}
}

// TestControllerInboxFault: a scripted admission fault rejects the offer
// before it reaches the inbox, counted as backpressure.
func TestControllerInboxFault(t *testing.T) {
	inj := faultinject.New(faultinject.Fault{
		Stage: resilience.StageCtlInbox,
		Kind:  faultinject.Error,
		Err:   ErrOverflow,
		Times: 1,
	})
	h := startCtl(t, func(cfg *Config) { cfg.Hook = inj })

	err := h.ctl.Offer(Event{Link: h.links[0], Up: false})
	if !errors.Is(err, ErrOverflow) {
		t.Fatalf("offer = %v, want injected ErrOverflow", err)
	}
	if !Retryable(err) {
		t.Error("overflow rejection must be retryable")
	}
	if h.obs.Snapshot().Counter(obs.CtlOverflows) != 1 {
		t.Error("CtlOverflows not counted")
	}
	// The re-offer (backpressure protocol) succeeds and settles.
	if err := h.ctl.Offer(Event{Link: h.links[0], Up: false}); err != nil {
		t.Fatal(err)
	}
	if s := h.wait(t, 1)[0]; s.Outcome != OutcomePushed {
		t.Fatalf("re-offer settlement = %+v, want pushed", s)
	}
}

// TestControllerRepairFault: a scripted repair-stage failure settles the
// event on the error arm with the injected cause.
func TestControllerRepairFault(t *testing.T) {
	boom := errors.New("repair engine on fire")
	inj := faultinject.New(faultinject.Fault{
		Stage: resilience.StageCtlRepair,
		Kind:  faultinject.Error,
		Err:   boom,
	})
	h := startCtl(t, func(cfg *Config) { cfg.Hook = inj })

	if err := h.ctl.Offer(Event{Link: h.links[0], Up: false}); err != nil {
		t.Fatal(err)
	}
	s := h.wait(t, 1)[0]
	if s.Outcome != OutcomeError || !errors.Is(s.Err, boom) {
		t.Fatalf("settlement = %+v, want error wrapping the injected cause", s)
	}
	if n := len(h.sink.Pushes()); n != 0 {
		t.Errorf("%d pushes after a failed repair", n)
	}
}

// TestControllerPushTransientFault: transient push failures burn retries,
// not the event — it still settles pushed once the sink recovers.
func TestControllerPushTransientFault(t *testing.T) {
	inj := faultinject.New(faultinject.Fault{
		Stage: resilience.StageCtlPush,
		Kind:  faultinject.Error,
		Err:   Transient(errors.New("sink flaking")),
		Times: 2,
	})
	h := startCtl(t, func(cfg *Config) { cfg.Hook = inj })

	if err := h.ctl.Offer(Event{Link: h.links[0], Up: false}); err != nil {
		t.Fatal(err)
	}
	s := h.wait(t, 1)[0]
	if s.Outcome != OutcomePushed {
		t.Fatalf("settlement = %+v, want pushed after retries", s)
	}
	snap := h.obs.Snapshot()
	if snap.Counter(obs.CtlPushRetries) != 2 {
		t.Errorf("CtlPushRetries = %d, want 2", snap.Counter(obs.CtlPushRetries))
	}
	if snap.Counter(obs.CtlDeadLetters) != 0 {
		t.Error("transient faults dead-lettered")
	}
}

// TestControllerDeadLetterResync: a permanent push failure settles the event
// with a typed DeadLetterError, then the controller schedules a snapshot
// resync on its own and the sink converges.
func TestControllerDeadLetterResync(t *testing.T) {
	faultinject.LeakCheck(t)
	boom := errors.New("sink rejected the delta")
	inj := faultinject.New(faultinject.Fault{
		Stage: resilience.StageCtlPush,
		Kind:  faultinject.Error,
		Err:   boom,
		Times: 1,
	})
	h := startCtl(t, func(cfg *Config) { cfg.Hook = inj })

	if err := h.ctl.Offer(Event{Link: h.links[0], Up: false}); err != nil {
		t.Fatal(err)
	}
	s := h.wait(t, 1)[0]
	var dle *DeadLetterError
	if s.Outcome != OutcomeError || !errors.As(s.Err, &dle) || !errors.Is(s.Err, boom) {
		t.Fatalf("settlement = %+v, want DeadLetterError wrapping the sink error", s)
	}
	if len(h.ctl.DeadLetters()) != 1 {
		t.Fatalf("dead-letter queue = %+v, want one entry", h.ctl.DeadLetters())
	}

	// The resync is self-scheduled: wait for the snapshot to land.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if e := h.sink.Epoch("s0"); e >= 1 && len(h.sink.Table("s0")) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("resync snapshot never reached the sink")
		}
		time.Sleep(2 * time.Millisecond)
	}
	pushes := h.sink.Pushes()
	last := pushes[len(pushes)-1]
	if !last.Snapshot {
		t.Errorf("resync push = %+v, want a snapshot", last)
	}
	if h.obs.Snapshot().Counter(obs.CtlResyncs) != 1 {
		t.Error("CtlResyncs not counted")
	}
}

// TestControllerFlapCoalescesToOnePush: a down/up/down flap offered before
// the loop wakes collapses to one slot, one repair, one push — and all
// three events settle with that push's outcome.
func TestControllerFlapCoalescesToOnePush(t *testing.T) {
	base, err := SimNetwork(6)
	if err != nil {
		t.Fatal(err)
	}
	settle := make(chan Settlement, 16)
	sink := NewMemSink()
	o := obs.New(nil)
	ctl, err := New(Config{
		Base:     base,
		Dests:    []string{"s0"},
		Sink:     sink,
		Obs:      o,
		OnSettle: func(s Settlement) { settle <- s },
	})
	if err != nil {
		t.Fatal(err)
	}
	link := base.EdgeKeys()[0]
	// Offer the whole flap before Run starts: deterministic coalescing.
	for _, up := range []bool{false, true, false} {
		if err := ctl.Offer(Event{Link: link, Up: up}); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	exit := make(chan error, 1)
	go func() { exit <- ctl.Run(ctx) }()
	defer func() { cancel(); <-exit }()

	var ss []Settlement
	deadline := time.After(30 * time.Second)
	for len(ss) < 3 {
		select {
		case s := <-settle:
			ss = append(ss, s)
		case <-deadline:
			t.Fatalf("timed out with %d/3 settlements", len(ss))
		}
	}
	for _, s := range ss {
		if s.Outcome != OutcomePushed || s.Epoch != 1 {
			t.Errorf("settlement = %+v, want pushed at epoch 1", s)
		}
	}
	if n := len(sink.Pushes()); n != 1 {
		t.Errorf("flap produced %d pushes, want exactly 1", n)
	}
	snap := o.Snapshot()
	if snap.Counter(obs.CtlCoalesced) != 2 {
		t.Errorf("CtlCoalesced = %d, want 2", snap.Counter(obs.CtlCoalesced))
	}
	if snap.Counter(obs.CtlRepairs) != 1 {
		t.Errorf("CtlRepairs = %d, want 1 (one slot, one repair)", snap.Counter(obs.CtlRepairs))
	}
}
