package controller

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"syrep/internal/cache"
	"syrep/internal/network"
	"syrep/internal/obs"
	"syrep/internal/retry"
)

// SimConfig parameterizes the Poisson churn simulation: a seeded stream of
// link up/down events with exponential inter-arrival times driven through a
// live controller against an in-memory sink. The same seed reproduces the
// same event stream.
type SimConfig struct {
	// Seed keys the topology chords, the event stream, and the pusher's
	// backoff jitter.
	Seed int64
	// Nodes sizes the ring-plus-chords topology (default 8).
	Nodes int
	// Dests is how many destination nodes the controller maintains
	// (default 2).
	Dests int
	// TargetEpochs is the number of distinct topology epochs to drive
	// (default 1000). Generation stops at MaxEvents regardless.
	TargetEpochs int
	// MaxEvents caps offered events (default 50 × TargetEpochs).
	MaxEvents int
	// MeanGap is the mean of the exponential inter-arrival time
	// (default 500µs).
	MeanGap time.Duration
	// FlapEvery makes every Nth event a flap burst — three opposing
	// toggles of one link offered back to back — exercising coalescing
	// (default 25; 0 disables).
	FlapEvery int
	// MaxDown caps concurrently failed links so most topologies stay
	// 2-connected and repairable (default 2).
	MaxDown int
	// Obs observes the run; one is created when nil.
	Obs *obs.Observer
}

func (cfg SimConfig) withDefaults() SimConfig {
	if cfg.Nodes <= 3 {
		cfg.Nodes = 8
	}
	if cfg.Dests <= 0 {
		cfg.Dests = 2
	}
	if cfg.TargetEpochs <= 0 {
		cfg.TargetEpochs = 1000
	}
	if cfg.MaxEvents <= 0 {
		cfg.MaxEvents = 50 * cfg.TargetEpochs
	}
	if cfg.MeanGap <= 0 {
		cfg.MeanGap = 500 * time.Microsecond
	}
	if cfg.FlapEvery == 0 {
		cfg.FlapEvery = 25
	}
	if cfg.MaxDown <= 0 {
		cfg.MaxDown = 2
	}
	return cfg
}

// SimResult is the simulation's accounting: every offer either rejected at
// the inbox or settled through the trichotomy, plus the observability
// evidence the churn gate asserts on (epochs driven, staleness discards,
// coalescing, warm/cold repair split, and the event-latency histogram).
type SimResult struct {
	Offered     int               `json:"offered"`
	Rejected    int               `json:"rejected"`
	Settled     map[string]int    `json:"settled"`
	Settlements []Settlement      `json:"-"`
	Epochs      uint64            `json:"epochs"`
	Stale       int64             `json:"staleRepairsDiscarded"`
	Coalesced   int64             `json:"coalescedEvents"`
	Noops       int64             `json:"noopEvents"`
	WarmRepairs int64             `json:"warmRepairs"`
	ColdSynths  int64             `json:"coldSyntheses"`
	Degraded    int64             `json:"degradedTables"`
	DeadLetters int64             `json:"deadLetters"`
	Pushes      int64             `json:"pushes"`
	Latency     obs.HistogramStat `json:"latency"`
	FinalTables map[string]int    `json:"finalTableSizes"`
}

// SimNetwork builds the simulation topology: an n-node ring with skip-2
// chords, so every node has degree 4 and the graph tolerates the
// simulation's concurrent link failures while staying 2-connected almost
// always.
func SimNetwork(nodes int) (*network.Network, error) {
	b := network.NewBuilder("churn-sim")
	ids := make([]network.NodeID, nodes)
	for i := range ids {
		ids[i] = b.AddNode(fmt.Sprintf("s%d", i))
	}
	for i := 0; i < nodes; i++ {
		b.AddEdge(ids[i], ids[(i+1)%nodes])
		b.AddEdge(ids[i], ids[(i+2)%nodes])
	}
	return b.Build()
}

// RunSim drives one churn simulation to quiescence and returns its
// accounting. It asserts internal consistency (every accepted event
// settled, delta streams reconstructed the controller's tables, no settled
// table references a failed link) and reports violations as errors; the
// churn gate layers its own assertions on the result.
func RunSim(ctx context.Context, cfg SimConfig) (*SimResult, error) {
	cfg = cfg.withDefaults()
	base, err := SimNetwork(cfg.Nodes)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	o := cfg.Obs
	if o == nil {
		o = obs.New(nil)
	}
	dests := make([]string, cfg.Dests)
	for i := range dests {
		dests[i] = base.NodeName(network.NodeID(i * (cfg.Nodes / cfg.Dests)))
	}
	sink := NewMemSink()

	var settleMu sync.Mutex
	var settlements []Settlement
	onSettle := func(s Settlement) {
		settleMu.Lock()
		defer settleMu.Unlock()
		settlements = append(settlements, s)
	}

	ctl, err := New(Config{
		Base:      base,
		Dests:     dests,
		K:         1,
		Sink:      sink,
		Cache:     cache.New(cache.Config{MaxEntries: 4096, Obs: o}),
		Breaker:   retry.BreakerConfig{Threshold: 5, Cooldown: 50 * time.Millisecond},
		RetrySeed: cfg.Seed,
		// Tight repair budget: a dest made unsolvable by the current
		// failure set should degrade quickly, not stall the pass.
		RepairTimeout: 500 * time.Millisecond,
		Obs:           o,
		OnSettle:      onSettle,
	})
	if err != nil {
		return nil, err
	}

	runCtx, stop := context.WithCancel(ctx)
	defer stop()
	runExit := make(chan error, 1)
	go func() {
		runExit <- ctl.Run(runCtx)
	}()

	// Event generation: seeded Poisson arrivals toggling random links, with
	// periodic flap bursts. Up events only revive failed links, and the
	// concurrent failure count stays capped so repairs mostly succeed.
	links := base.EdgeKeys()
	sort.Strings(links)
	desiredDown := make(map[string]bool)
	accepted, rejected, offered := 0, 0, 0
	offer := func(link string, up bool) {
		offered++
		if err := ctl.Offer(Event{Link: link, Up: up}); err != nil {
			rejected++
			if !Retryable(err) {
				panic(fmt.Sprintf("sim: non-retryable offer rejection: %v", err))
			}
			return
		}
		accepted++
	}
	nextToggle := func() (string, bool) {
		link := links[rng.Intn(len(links))]
		if desiredDown[link] {
			delete(desiredDown, link)
			return link, true
		}
		if len(desiredDown) >= cfg.MaxDown {
			for _, l := range links { // deterministic: revive lowest failed link
				if desiredDown[l] {
					delete(desiredDown, l)
					return l, true
				}
			}
		}
		desiredDown[link] = true
		return link, false
	}
	for offered < cfg.MaxEvents && ctl.Epoch() < uint64(cfg.TargetEpochs) {
		if ctx.Err() != nil {
			return nil, context.Cause(ctx)
		}
		link, up := nextToggle()
		if cfg.FlapEvery > 0 && offered%cfg.FlapEvery == cfg.FlapEvery-1 {
			// Flap burst: three opposing toggles back to back; the inbox
			// collapses whatever it still holds to the final state.
			offer(link, up)
			offer(link, !up)
			offer(link, up)
		} else {
			offer(link, up)
		}
		gap := time.Duration(rng.ExpFloat64() * float64(cfg.MeanGap))
		time.Sleep(gap)
	}

	// Quiesce: every accepted event settles (the drain below rejects any
	// remainder, which also settles), then shut the controller down.
	quiesce := time.NewTimer(2 * time.Minute)
	defer quiesce.Stop()
	for {
		settleMu.Lock()
		n := len(settlements)
		settleMu.Unlock()
		if n >= accepted {
			break
		}
		select {
		case <-ctx.Done():
			return nil, context.Cause(ctx)
		case <-quiesce.C:
			stop()
			<-runExit
			return nil, fmt.Errorf("sim: quiesce timeout with %d/%d settled", n, accepted)
		case <-time.After(2 * time.Millisecond):
		}
	}
	stop()
	if err := <-runExit; err != nil && !errors.Is(err, context.Canceled) {
		return nil, err
	}

	settleMu.Lock()
	final := append([]Settlement(nil), settlements...)
	settleMu.Unlock()
	if len(final) != accepted {
		return nil, fmt.Errorf("sim: %d settlements for %d accepted events", len(final), accepted)
	}

	if err := checkConvergence(ctl, sink, base); err != nil {
		return nil, err
	}

	snap := o.Snapshot()
	res := &SimResult{
		Offered:     offered,
		Rejected:    rejected,
		Settled:     make(map[string]int),
		Settlements: final,
		Epochs:      ctl.Epoch(),
		Stale:       snap.Counter(obs.CtlStale),
		Coalesced:   snap.Counter(obs.CtlCoalesced),
		Noops:       snap.Counter(obs.CtlNoops),
		WarmRepairs: snap.Counter(obs.CtlWarmRepairs),
		ColdSynths:  snap.Counter(obs.CtlColdSynths),
		Degraded:    snap.Counter(obs.CtlDegraded),
		DeadLetters: snap.Counter(obs.CtlDeadLetters),
		Pushes:      snap.Counter(obs.CtlPushes),
		Latency:     snap.Histogram(obs.CtlEventLatency),
		FinalTables: make(map[string]int),
	}
	for _, s := range final {
		switch s.Outcome {
		case OutcomePushed, OutcomeDegraded, OutcomeError:
			res.Settled[s.Outcome.String()]++
		default:
			return nil, fmt.Errorf("sim: settlement outside the trichotomy: %+v", s)
		}
	}
	for _, d := range dests {
		res.FinalTables[d] = len(sink.Table(d))
	}
	return res, nil
}

// checkConvergence proves the epoch discipline end to end: the sink's
// receiver-side tables (reconstructed purely from the delta stream) must
// equal the controller's last-pushed tables, and no settled table may
// reference a link that was down at the final epoch — a stale push would.
func checkConvergence(ctl *Controller, sink *MemSink, base *network.Network) error {
	ctl.mu.Lock()
	lastPushed := make(map[string]map[string]TableEntry, len(ctl.lastPushed))
	for d, t := range ctl.lastPushed {
		lastPushed[d] = t
	}
	downLinks := make(map[string]bool, len(ctl.down))
	for l := range ctl.down {
		downLinks[l] = true
	}
	ctl.mu.Unlock()
	for dest, want := range lastPushed {
		got := sink.Table(dest)
		if len(got) != len(want) {
			return fmt.Errorf("sim: sink table for %s has %d entries, controller pushed %d",
				dest, len(got), len(want))
		}
		for k, w := range want {
			g, ok := got[k]
			if !ok || !g.equal(w) {
				return fmt.Errorf("sim: sink table for %s diverges at %s", dest, k)
			}
			for _, ref := range append([]string{w.In}, w.Prio...) {
				if downLinks[ref] {
					return fmt.Errorf("sim: final table for %s references failed link %s (stale push)",
						dest, ref)
				}
			}
		}
	}
	return nil
}
