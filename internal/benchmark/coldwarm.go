package benchmark

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"time"

	"syrep/internal/cache"
	"syrep/internal/network"
	"syrep/internal/resilience"
	"syrep/internal/topozoo"
)

// ColdWarm is one row of the cold-versus-warm comparison: the same modified
// topology (the base instance minus EdgesDropped random edges) solved from
// scratch and via the warm-start fast path seeded from the base table.
type ColdWarm struct {
	Instance     string        `json:"instance"`
	Nodes        int           `json:"nodes"`
	Edges        int           `json:"edges"`
	K            int           `json:"k"`
	EdgesDropped int           `json:"edgesDropped"`
	Cold         time.Duration `json:"coldNs"`
	Warm         time.Duration `json:"warmNs"`
	// Speedup is Cold/Warm; > 1 means the warm-start path won.
	Speedup float64 `json:"speedup"`
	// HolesFilled counts the seed holes the warm fill solved.
	HolesFilled int  `json:"holesFilled"`
	ColdSolved  bool `json:"coldSolved"`
	WarmSolved  bool `json:"warmSolved"`
}

// ColdWarmConfig tunes the comparison sweep.
type ColdWarmConfig struct {
	// K is the resilience level (default 2).
	K int
	// MaxDropped sweeps 1..MaxDropped edge deletions per instance
	// (default 2).
	MaxDropped int
	// Timeout bounds each synthesis (default 30s).
	Timeout time.Duration
	// Seed makes the edge selection deterministic (default 1).
	Seed int64
}

func (c ColdWarmConfig) withDefaults() ColdWarmConfig {
	if c.K <= 0 {
		c.K = 2
	}
	if c.MaxDropped <= 0 {
		c.MaxDropped = 2
	}
	if c.Timeout <= 0 {
		c.Timeout = 30 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// connectedWithout reports whether the real-edge graph stays connected after
// hypothetically removing drop.
func connectedWithout(n *network.Network, drop map[network.EdgeID]bool) bool {
	seen := make([]bool, n.NumNodes())
	queue := []network.NodeID{0}
	seen[0] = true
	count := 1
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, e := range n.IncidentEdges(v) {
			if drop[e] {
				continue
			}
			w := n.Other(e, v)
			if !seen[w] {
				seen[w] = true
				count++
				queue = append(queue, w)
			}
		}
	}
	return count == n.NumNodes()
}

// pickDrop chooses m distinct real edges whose removal keeps the graph
// connected, or nil when no such set turns up.
func pickDrop(rng *rand.Rand, n *network.Network, m int) []network.EdgeID {
	edges := n.RealEdges()
	if len(edges) <= m {
		return nil
	}
	for attempt := 0; attempt < 50; attempt++ {
		drop := make(map[network.EdgeID]bool, m)
		for len(drop) < m {
			drop[edges[rng.Intn(len(edges))]] = true
		}
		if connectedWithout(n, drop) {
			out := make([]network.EdgeID, 0, m)
			for _, e := range edges {
				if drop[e] {
					out = append(out, e)
				}
			}
			return out
		}
	}
	return nil
}

// ColdVsWarm measures the warm-start dynamic-repair shortcut against cold
// synthesis. Per instance: synthesize a base table (untimed), then for each
// m in 1..MaxDropped delete m random connectivity-preserving edges and solve
// the modified topology twice — cold (the full pipeline from scratch) and
// warm (resilience.WarmRepair from a cache holding only the base table: Adapt
// it so entries over the failed edges become holes, then run only fill +
// final verification). Instances whose base synthesis fails, or with no
// droppable edge set, are skipped.
func ColdVsWarm(ctx context.Context, instances []topozoo.Instance, cfg ColdWarmConfig) ([]ColdWarm, error) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	var out []ColdWarm
	for _, inst := range instances {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		opts := resilience.Options{Timeout: cfg.Timeout}
		base, _, err := resilience.Synthesize(ctx, inst.Net, inst.Dest, cfg.K, opts)
		if err != nil {
			continue // an instance the pipeline cannot settle teaches nothing here
		}
		entry := &cache.Entry{Net: inst.Net, Routing: base, Resilient: true}
		destName := inst.Net.NodeName(inst.Dest)

		for m := 1; m <= cfg.MaxDropped; m++ {
			drop := pickDrop(rng, inst.Net, m)
			if drop == nil {
				continue
			}
			mod, err := network.WithoutEdges(inst.Net, drop)
			if err != nil {
				return nil, err
			}
			row := ColdWarm{
				Instance:     inst.Name,
				Nodes:        mod.NumNodes(),
				Edges:        mod.NumRealEdges(),
				K:            cfg.K,
				EdgesDropped: m,
			}

			start := time.Now()
			_, _, err = resilience.Synthesize(ctx, mod, mod.NodeByName(destName), cfg.K, opts)
			row.Cold = time.Since(start)
			row.ColdSolved = err == nil

			// A throwaway one-entry cache holding only the base table, so the
			// warm time is exactly what the server and controller pay:
			// lookup, Adapt, WarmStart and the insert of the result.
			c := cache.New(cache.Config{MaxEntries: 1})
			c.Put(resilience.CacheKey(inst.Net, inst.Dest, cfg.K, opts.Strategy), entry)
			start = time.Now()
			_, rep, err := resilience.WarmRepair(ctx, c, mod, mod.NodeByName(destName), cfg.K, m, opts)
			row.Warm = time.Since(start)
			row.WarmSolved = err == nil
			if rep != nil {
				row.HolesFilled = rep.HolesFilled
			}

			if row.WarmSolved && row.Warm > 0 {
				row.Speedup = float64(row.Cold) / float64(row.Warm)
			}
			out = append(out, row)
		}
	}
	return out, nil
}

// WriteColdWarm renders the comparison as a text table with a summary line
// (geometric-mean speedup over rows both paths solved).
func WriteColdWarm(ctx context.Context, w io.Writer, instances []topozoo.Instance, cfg ColdWarmConfig) ([]ColdWarm, error) {
	rows, err := ColdVsWarm(ctx, instances, cfg)
	if err != nil {
		return nil, err
	}
	if _, err := fmt.Fprintf(w, "%-28s %6s %6s %5s %8s %12s %12s %9s\n",
		"instance", "nodes", "edges", "drop", "holes", "cold", "warm", "speedup"); err != nil {
		return nil, err
	}
	logSum, n := 0.0, 0
	for _, r := range rows {
		if _, err := fmt.Fprintf(w, "%-28s %6d %6d %5d %8d %12s %12s %8.1fx\n",
			r.Instance, r.Nodes, r.Edges, r.EdgesDropped, r.HolesFilled,
			r.Cold.Round(time.Microsecond), r.Warm.Round(time.Microsecond), r.Speedup); err != nil {
			return nil, err
		}
		if r.ColdSolved && r.WarmSolved && r.Speedup > 0 {
			logSum += math.Log(r.Speedup)
			n++
		}
	}
	if n > 0 {
		if _, err := fmt.Fprintf(w, "geomean speedup over %d solved pairs: %.1fx\n",
			n, math.Exp(logSum/float64(n))); err != nil {
			return nil, err
		}
	}
	return rows, nil
}

// WriteColdWarmJSON emits the rows as one JSON array (the CI artifact).
func WriteColdWarmJSON(w io.Writer, rows []ColdWarm) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rows)
}
