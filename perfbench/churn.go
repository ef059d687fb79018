package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"syrep/internal/cache"
	"syrep/internal/controller"
	"syrep/internal/network"
	"syrep/internal/resilience"
	"syrep/internal/routing"
	"syrep/internal/verify"
)

// churnTopo is the churn workload's fixed topology and churnDests the
// destinations the controller keeps current, at K=1 with one link down at a
// time. Each single-link failure warm-repairs from the all-up table: for
// these destinations every such repair settles in under about 0.3 s, far
// inside the controller's default 5 s RepairTimeout, so no event settles
// degraded. (With Roma, Napoli and Palermo among the destinations, the
// repair after Bari-Napoli fails runs past RepairTimeout and settles a
// degraded table, and Bari-Bologna takes over 4 s.)
const churnTopo = "Garr"

var churnDests = []string{"Milano", "Genova", "Firenze", "Bari"}

// churnRepairTimeout is the controller's default RepairTimeout, also used
// for the all-up tables of set-up.
const churnRepairTimeout = 5 * time.Second

type churnWorkload struct {
	seed  int64
	dests []string
	// links is how many links (in key order) the events toggle: all of
	// them, or a few for the smoke test.
	links int

	// Recorded for the checks: every distinct settled table of a solved
	// event, keyed by down link, destination and table digest.
	tables map[string]churnTable
	errs   []error
}

// churnTable is one settled sink table and the topology it must serve.
type churnTable struct {
	down  string // down link key, "" when every link is up
	dest  string
	table map[string]controller.TableEntry
}

func newChurn(seed int64, sz size) *churnWorkload {
	w := &churnWorkload{seed: seed, dests: churnDests, tables: map[string]churnTable{}}
	if base, err := newTopologies().get(churnTopo); err == nil {
		w.links = base.NumRealEdges()
	}
	if sz == sizeSmoke {
		w.dests, w.links = churnDests[:2], 3
	}
	return w
}

func (w *churnWorkload) name() string { return "churn" }

// opsPerRound counts the timed events: a down and an up per link.
func (w *churnWorkload) opsPerRound() int { return 2 * w.links }

// churnEvent is one link event of the closed loop.
type churnEvent struct {
	link string
	up   bool
}

// events returns round r's seeded sequence: the links in a seeded order,
// each failed and then restored, so at most one link is down at a time.
// Every failure is a first visit to its topology and warm-repairs from the
// all-up table, the nearest cached one; every restore finds the all-up table
// itself in the cache. Which repairs happen therefore does not depend on the
// seed, only their order does.
func (w *churnWorkload) events(links []string, r int) []churnEvent {
	rng := rand.New(rand.NewSource(roundSeed(w.seed, r)))
	var ev []churnEvent
	for _, i := range rng.Perm(len(links)) {
		ev = append(ev, churnEvent{links[i], false}, churnEvent{links[i], true})
	}
	return ev
}

// churnRun is one round's live controller.
type churnRun struct {
	ctl     *controller.Controller
	sink    *controller.MemSink
	settled chan controller.Settlement
	cancel  context.CancelFunc
	exit    chan error
}

func (c *churnRun) stop() error {
	c.cancel()
	err := <-c.exit
	if errors.Is(err, context.Canceled) {
		return nil
	}
	return err
}

// offer submits one event and waits for its settlement.
func (c *churnRun) offer(ctx context.Context, ev churnEvent) (controller.Settlement, error) {
	if err := c.ctl.Offer(controller.Event{Link: ev.link, Up: ev.up}); err != nil {
		return controller.Settlement{}, err
	}
	select {
	case s := <-c.settled:
		if s.Event.Link != ev.link || s.Event.Up != ev.up {
			return s, fmt.Errorf("offered %v %s, settled %v", ev.up, ev.link, s.Event)
		}
		return s, nil
	case <-ctx.Done():
		return controller.Settlement{}, ctx.Err()
	}
}

// start is a round's set-up: it synthesizes the all-up tables cold, seeds
// an empty cache with them as the controller's own cold path would, and
// starts the controller's loop.
func (w *churnWorkload) start(ctx context.Context, p *probe) (*churnRun, []string, error) {
	base, err := newTopologies().get(churnTopo)
	if err != nil {
		return nil, nil, err
	}
	links := append([]string(nil), base.EdgeKeys()...)
	sort.Strings(links)
	links = links[:w.links]
	const k = 1
	strategy := resilience.Combined
	cc := cache.New(cache.Config{MaxEntries: 4096, Obs: p.observer()})
	for _, d := range w.dests {
		r, _, err := resilience.Synthesize(ctx, base, base.NodeByName(d), k,
			resilience.Options{Strategy: strategy, Timeout: churnRepairTimeout})
		if err != nil {
			return nil, nil, fmt.Errorf("all-up table for %s: %w", d, err)
		}
		cc.Put(cache.Key{Topo: base.Fingerprint(), Dest: d, K: k, Strategy: strategy.String()},
			&cache.Entry{Net: base, Routing: r, Resilient: true})
	}
	runCtx, cancel := context.WithCancel(ctx)
	c := &churnRun{
		sink: controller.NewMemSink(),
		// One event is outstanding at a time and each settles once.
		settled: make(chan controller.Settlement, 1),
		cancel:  cancel,
		exit:    make(chan error, 1),
	}
	c.ctl, err = controller.New(controller.Config{
		Base:          base,
		Dests:         w.dests,
		K:             k,
		Sink:          c.sink,
		Cache:         cc,
		Strategy:      strategy,
		RepairTimeout: churnRepairTimeout,
		RetrySeed:     w.seed,
		Obs:           p.observer(),
		VerifyBackend: p.backend(),
		OnSettle: func(s controller.Settlement) {
			select {
			case c.settled <- s:
			case <-runCtx.Done():
			}
		},
	})
	if err != nil {
		cancel()
		return nil, nil, err
	}
	go func() { c.exit <- c.ctl.Run(runCtx) }()
	return c, links, nil
}

func (w *churnWorkload) round(ctx context.Context, r int, p *probe) (roundResult, error) {
	t0 := time.Now()
	c, links, err := w.start(ctx, p)
	if err != nil {
		return roundResult{}, err
	}
	res := roundResult{setup: time.Since(t0)}
	seq := w.events(links, r)

	// last holds each destination's table as of the latest settlement.
	last := map[string]map[string]controller.TableEntry{}
	settledTables := func() {
		for _, d := range w.dests {
			last[d] = c.sink.Table(d)
		}
	}
	settledTables()
	down := ""
	for _, ev := range seq {
		t := time.Now()
		s, err := c.offer(ctx, ev)
		lat := time.Since(t)
		if err != nil {
			return res, errors.Join(err, c.stop())
		}
		res.wall += lat
		if ev.up {
			down = ""
		} else {
			down = ev.link
		}
		// Outside the event's latency: record the settled tables.
		settledTables()
		if s.Outcome != controller.OutcomePushed || s.Err != nil {
			res.latencies = append(res.latencies, failedLatency)
			continue
		}
		res.latencies = append(res.latencies, lat)
		res.solved++
		for _, d := range w.dests {
			t := churnTable{down: down, dest: d, table: last[d]}
			w.tables[down+"\x00"+d+"\x00"+tableDigest(t.table)] = t
		}
	}
	if err := c.stop(); err != nil {
		return res, err
	}
	// The final sink tables must equal the last settled ones: nothing is
	// pushed after the last settlement, not even by the drain.
	for _, d := range w.dests {
		if !sameTable(c.sink.Table(d), last[d]) {
			w.errs = append(w.errs, fmt.Errorf("round %d: final sink table for %s differs from its last settled table", r, d))
		}
	}
	return res, nil
}

func (w *churnWorkload) check(ctx context.Context, _ config) error {
	if len(w.errs) > 0 {
		return errors.Join(w.errs...)
	}
	base, err := newTopologies().get(churnTopo)
	if err != nil {
		return err
	}
	for _, key := range sortedKeys(w.tables) {
		t := w.tables[key]
		topo := base
		if t.down != "" {
			e, _ := base.EdgeByKey(t.down)
			if topo, err = network.WithoutEdges(base, []network.EdgeID{e}); err != nil {
				return err
			}
		}
		r, err := decodeTable(topo, t.dest, t.table)
		if err != nil {
			return fmt.Errorf("table for %s with %q down: %w", t.dest, t.down, err)
		}
		rep, err := verify.Check(ctx, r, 1, verify.Options{StopAtFirst: true})
		if err != nil {
			return err
		}
		if !rep.Resilient {
			return fmt.Errorf("settled table for %s with %q down is not 1-resilient", t.dest, t.down)
		}
	}
	return nil
}

// decodeTable resolves a sink table onto topo. A rule naming a link absent
// from topo (a failed link) fails the decode.
func decodeTable(topo *network.Network, dest string, table map[string]controller.TableEntry) (*routing.Routing, error) {
	d := topo.NodeByName(dest)
	if d < 0 {
		return nil, fmt.Errorf("no node %q", dest)
	}
	r := routing.New(topo, d)
	edge := func(key string) (network.EdgeID, error) {
		e, ok := topo.EdgeByKey(key)
		if !ok {
			return 0, fmt.Errorf("rule references link %s, which is down", key)
		}
		return e, nil
	}
	for _, te := range table {
		in, err := edge(te.In)
		if err != nil {
			return nil, err
		}
		at := topo.NodeByName(te.At)
		if at < 0 {
			return nil, fmt.Errorf("no node %q", te.At)
		}
		prio := make([]network.EdgeID, len(te.Prio))
		for i, key := range te.Prio {
			if prio[i], err = edge(key); err != nil {
				return nil, err
			}
		}
		if err := r.Set(in, at, prio); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// tableDigest is a canonical rendering of a sink table.
func tableDigest(t map[string]controller.TableEntry) string {
	var b strings.Builder
	for _, k := range sortedKeys(t) {
		fmt.Fprintf(&b, "%s=%s;", k, strings.Join(t[k].Prio, ","))
	}
	return b.String()
}

func sameTable(a, b map[string]controller.TableEntry) bool {
	return tableDigest(a) == tableDigest(b)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
