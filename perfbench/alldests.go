package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"syrep/internal/network"
	"syrep/internal/resilience"
	"syrep/internal/routing"
)

// allDestsLimit is each destination's timeout inside a batch. Every
// destination of the pinned networks finishes far inside it; the slowest,
// Sprint/Washington, takes about 1.6 s.
const allDestsLimit = 10 * time.Second

// allDestsNets is the pinned network set: every embedded network except
// Nsfnet, whose AnnArbor destination does not finish at k=1 within a 30 s
// limit and would make the batch time that one destination's timeout.
var allDestsNets = []string{
	"Aarnet", "Abilene", "Arnes", "Arpanet1970", "BizNet", "Cesnet",
	"Garr", "Geant", "Renater", "Sprint", "Uninett",
}

type allDestsWorkload struct {
	seed    int64
	nets    []string
	workers int
	ops     int
	solved  *solvedTables
}

func newAllDests(seed int64, sz size) *allDestsWorkload {
	nets := allDestsNets
	if sz == sizeSmoke {
		nets = []string{"Arnes"}
	}
	w := &allDestsWorkload{seed: seed, nets: nets, workers: runtime.NumCPU(), solved: newSolvedTables()}
	topos := newTopologies()
	for _, n := range nets {
		if net, err := topos.get(n); err == nil {
			w.ops += net.NumNodes()
		}
	}
	return w
}

func (w *allDestsWorkload) name() string     { return "alldests" }
func (w *allDestsWorkload) opsPerRound() int { return w.ops }

// inputs builds the round's networks in a seeded order. Each batch takes
// every destination in node order, as SynthesizeAll does by default, so
// which destinations run side by side does not change with the seed.
func (w *allDestsWorkload) inputs(r int) ([]*network.Network, error) {
	topos := newTopologies()
	nets := make([]*network.Network, len(w.nets))
	for i, name := range w.nets {
		net, err := topos.get(name)
		if err != nil {
			return nil, err
		}
		nets[i] = net
	}
	rng := rand.New(rand.NewSource(roundSeed(w.seed, r)))
	rng.Shuffle(len(nets), func(a, b int) { nets[a], nets[b] = nets[b], nets[a] })
	return nets, nil
}

func (w *allDestsWorkload) round(ctx context.Context, r int, p *probe) (roundResult, error) {
	var in []*network.Network
	setup, err := timeSetup(setupReps, func() (err error) {
		in, err = w.inputs(r)
		return err
	})
	if err != nil {
		return roundResult{}, err
	}

	type solvedDest struct {
		id string
		r  *routing.Routing
	}
	res := roundResult{setup: setup, latencies: make([]time.Duration, 0, w.ops)}
	var solved []solvedDest
	opts := resilience.BatchOptions{
		Run: resilience.Options{
			Strategy:      resilience.Combined,
			Timeout:       allDestsLimit,
			Obs:           p.observer(),
			VerifyBackend: p.backend(),
		},
		Workers: w.workers,
		Obs:     p.observer(),
	}
	for _, net := range in {
		t0 := time.Now()
		results, rep, err := resilience.SynthesizeAll(ctx, net, 1, opts)
		res.wall += time.Since(t0)
		if err != nil {
			return res, fmt.Errorf("%s: %w", net.Name(), err)
		}
		var busy time.Duration
		for _, d := range results {
			p.report(d.Report, allDestsLimit)
			if d.Report != nil {
				busy += d.Report.Elapsed
			}
			if d.Err != nil || !d.Resilient || d.Routing == nil || d.Report == nil {
				res.latencies = append(res.latencies, failedLatency)
				continue
			}
			res.latencies = append(res.latencies, d.Report.Elapsed)
			res.solved++
			solved = append(solved, solvedDest{net.Name() + "/" + d.Name + "/k1", d.Routing})
		}
		p.batch(rep, w.workers, busy)
	}

	for _, s := range solved {
		w.solved.add(s.id, s.r, 1)
	}
	return res, nil
}

func (w *allDestsWorkload) check(ctx context.Context, cfg config) error {
	if err := w.solved.verifyAll(ctx); err != nil {
		return err
	}
	return goldenCheck(w.solved, cfg, w.name())
}
