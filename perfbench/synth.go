package main

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"syrep/internal/network"
	"syrep/internal/resilience"
	"syrep/internal/routing"
)

// synthLimit is every synth job's timeout. The pinned jobs all finish well
// inside it at the commit that introduced the benchmark (the slowest in
// about a third of it), so a job that starts failing is a regression, not
// noise.
const synthLimit = 3 * time.Second

// synthJob is one cold single-destination synthesis.
type synthJob struct {
	topo, dest string
	k          int
}

func (j synthJob) id() string { return fmt.Sprintf("%s/%s/k%d", j.topo, j.dest, j.k) }

// synthJobs is the pinned job list. It mixes verify-only jobs, where the
// heuristic table is already resilient and a solve takes a few
// milliseconds, with repair-bound jobs, where encode and the BDD engine do
// almost all the work (2 ms to about 0.9 s on a 2-CPU x86-64 VM).
// Verify-only jobs are the larger group, so the median sits inside that
// group rather than on the gap between the two; the tail percentile falls
// among the repair-bound jobs.
var synthJobs = expandJobs([]jobGroup{
	// Verify-only at k=2.
	{2, "Abilene", "NewYork Atlanta Sunnyvale Seattle"},
	{2, "Arnes", "Ljubljana Maribor Kranj Koper NovoMesto MurskaSobota Ptuj Celje Jesenice NovaGorica"},
	{2, "Arpanet1970", "UCLA SRI UCSB BBN MIT CMU"},
	{2, "BizNet", "Hub0 Hub2"},
	{2, "Uninett", "Oslo Bergen Trondheim Steinkjer Mosjoen Bodo Narvik Tromso Alta Hammerfest Kirkenes Longyearbyen"},
	{2, "zoo-n8-s800", "h0"},
	{2, "zoo-n8-s801", "h3"},
	{2, "zoo-n12-s1200", "h0 h1"},
	{2, "zoo-n12-s1201", "h2"},
	{2, "zoo-n16-s1600", "h3"},
	{2, "zoo-n16-s1601", "h0 h1"},
	// Verify-only at k=3.
	{3, "Abilene", "NewYork Atlanta Sunnyvale Seattle"},
	{3, "Arnes", "Ljubljana Maribor Kranj Koper NovoMesto MurskaSobota Ptuj Celje Jesenice NovaGorica"},
	{3, "Arpanet1970", "UCLA SRI UCSB BBN MIT CMU"},
	{3, "Uninett", "Oslo Bergen Trondheim Steinkjer Mosjoen Bodo Narvik Tromso Alta Hammerfest Kirkenes Longyearbyen"},
	{3, "zoo-n8-s801", "h3"},
	// Repair-bound at k=2.
	{2, "Abilene", "Chicago Houston KansasCity Denver Indianapolis"},
	{2, "Arpanet1970", "Harvard Lincoln"},
	{2, "BizNet", "Hub1 Hub3 a4"},
	{2, "Cesnet", "Praha Brno"},
	{2, "Garr", "Bologna Firenze Trieste"},
	{2, "Nsfnet", "Pittsburgh Princeton"},
	{2, "Sprint", "Chicago"},
	{2, "Uninett", "Stavanger Kristiansand"},
	{2, "zoo-n8-s800", "h1 h3"},
	{2, "zoo-n12-s1201", "h1"},
	{2, "zoo-n16-s1601", "h3"},
	// Repair-bound at k=3.
	{3, "Abilene", "WashingtonDC Houston Denver Indianapolis"},
	{3, "Arpanet1970", "Harvard Lincoln"},
	{3, "Cesnet", "Praha Brno"},
	{3, "Garr", "Bologna"},
	{3, "Uninett", "Stavanger Kristiansand"},
	{3, "zoo-n8-s801", "h2"},
	{3, "zoo-n12-s1200", "h1"},
})

// jobGroup lists destinations of one topology at one k.
type jobGroup struct {
	k     int
	topo  string
	dests string // space-separated node names
}

func expandJobs(groups []jobGroup) []synthJob {
	var jobs []synthJob
	for _, g := range groups {
		for _, d := range strings.Fields(g.dests) {
			jobs = append(jobs, synthJob{g.topo, d, g.k})
		}
	}
	return jobs
}

// synthSmokeJobs is a tiny mix for the smoke test: one verify-only and one
// repair-bound job.
var synthSmokeJobs = []synthJob{
	{"Arnes", "Ljubljana", 2},
	{"BizNet", "a4", 2},
}

type synthWorkload struct {
	seed   int64
	jobs   []synthJob
	solved *solvedTables
}

func newSynth(seed int64, sz size) *synthWorkload {
	jobs := synthJobs
	if sz == sizeSmoke {
		jobs = synthSmokeJobs
	}
	return &synthWorkload{seed: seed, jobs: jobs, solved: newSolvedTables()}
}

func (w *synthWorkload) name() string     { return "synth" }
func (w *synthWorkload) opsPerRound() int { return len(w.jobs) }

// synthInput is one job resolved against freshly built topologies.
type synthInput struct {
	job  synthJob
	net  *network.Network
	dest network.NodeID
}

// inputs builds every job's topology and resolves its destination, in the
// round's seeded order.
func (w *synthWorkload) inputs(r int) ([]synthInput, error) {
	topos := newTopologies()
	in := make([]synthInput, len(w.jobs))
	for i, j := range w.jobs {
		net, err := topos.get(j.topo)
		if err != nil {
			return nil, err
		}
		d := net.NodeByName(j.dest)
		if d < 0 {
			return nil, fmt.Errorf("%s: no node %q", j.topo, j.dest)
		}
		in[i] = synthInput{job: j, net: net, dest: d}
	}
	rng := rand.New(rand.NewSource(roundSeed(w.seed, r)))
	rng.Shuffle(len(in), func(a, b int) { in[a], in[b] = in[b], in[a] })
	return in, nil
}

func (w *synthWorkload) round(ctx context.Context, r int, p *probe) (roundResult, error) {
	var in []synthInput
	setup, err := timeSetup(setupReps, func() (err error) {
		in, err = w.inputs(r)
		return err
	})
	if err != nil {
		return roundResult{}, err
	}

	type solvedJob struct {
		job synthJob
		r   *routing.Routing
	}
	res := roundResult{setup: setup, latencies: make([]time.Duration, 0, len(in))}
	var solved []solvedJob
	opts := resilience.Options{
		Strategy:      resilience.Combined,
		Timeout:       synthLimit,
		Obs:           p.observer(),
		VerifyBackend: p.backend(),
	}
	start := time.Now()
	for _, x := range in {
		t0 := time.Now()
		rt, rep, err := resilience.Synthesize(ctx, x.net, x.dest, x.job.k, opts)
		lat := time.Since(t0)
		p.report(rep, synthLimit)
		if err != nil || rt == nil {
			res.latencies = append(res.latencies, failedLatency)
			continue
		}
		res.latencies = append(res.latencies, lat)
		res.solved++
		solved = append(solved, solvedJob{x.job, rt})
	}
	res.wall = time.Since(start)
	if err := ctx.Err(); err != nil {
		return res, err // the run's deadline, not the jobs, failed them
	}

	for _, s := range solved {
		w.solved.add(s.job.id(), s.r, s.job.k)
	}
	return res, nil
}

func (w *synthWorkload) check(ctx context.Context, cfg config) error {
	if err := w.solved.verifyAll(ctx); err != nil {
		return err
	}
	return goldenCheck(w.solved, cfg, w.name())
}
