package main

import (
	"fmt"
	"time"

	"syrep/internal/network"
	"syrep/internal/topozoo"
)

// setupReps is how many times a round repeats its set-up; the round's
// setup time is the median. Only the last repetition's inputs are used.
const setupReps = 5

// timeSetup runs f reps times and returns the median wall time.
func timeSetup(reps int, f func() error) (time.Duration, error) {
	d := make([]float64, reps)
	for i := range d {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		d[i] = float64(time.Since(t0))
	}
	return time.Duration(median(d)), nil
}

// roundSeed derives round r's input seed from the run seed.
func roundSeed(seed int64, r int) int64 { return seed*1_000_003 + int64(r) }

// topologies builds networks by name: an embedded Topology Zoo stand-in
// ("Abilene") or a generated Zoo-like network ("zoo-n16-s1600", nodes and
// generator seed as topozoo.GeneratedSuite names them). Every instance
// builds its networks afresh, so nothing one round computed lazily on a
// network (edge keys, fingerprints) carries into the next.
type topologies struct {
	embedded map[string]*network.Network
	built    map[string]*network.Network
}

func newTopologies() *topologies {
	return &topologies{built: map[string]*network.Network{}}
}

func (t *topologies) get(name string) (*network.Network, error) {
	if n, ok := t.built[name]; ok {
		return n, nil
	}
	var nodes int
	var seed int64
	if _, err := fmt.Sscanf(name, "zoo-n%d-s%d", &nodes, &seed); err == nil {
		n := topozoo.Generate(topozoo.GenConfig{Nodes: nodes, Seed: seed})
		t.built[name] = n
		return n, nil
	}
	if t.embedded == nil {
		t.embedded = map[string]*network.Network{}
		for _, in := range topozoo.Embedded() {
			t.embedded[in.Name] = in.Net
		}
	}
	n, ok := t.embedded[name]
	if !ok {
		return nil, fmt.Errorf("unknown topology %q", name)
	}
	t.built[name] = n
	return n, nil
}

// goldenCheck runs the cross-run fingerprint comparison and reports the
// digest of this run's fingerprints.
func goldenCheck(s *solvedTables, cfg config, workload string) error {
	digest, err := s.golden(cfg.stateDir, workload, cfg.seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(cfg.log, "perfbench: %s routing fingerprints: %d tables, digest %s (stored under %s)\n",
		workload, len(s.fps), digest, cfg.stateDir)
	return nil
}
