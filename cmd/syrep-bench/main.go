// Command syrep-bench regenerates the evaluation artefacts of the SyRep
// paper (Section V) on the built-in topology suite: the cactus plots of
// Figure 7a/7c, the runtime-ratio plots of Figure 7b/7d, the
// size-versus-runtime scatters of Figures 8 and 9, the reduction-effect
// table of Figure 5, and the per-method summary reported in the text.
//
// Usage:
//
//	syrep-bench -fig all                # everything (slow)
//	syrep-bench -fig 7a -timeout 5s    # one figure
//	syrep-bench -fig 7a -max-nodes 24  # smaller suite for laptops
//	syrep-bench -zoo-dir path/to/zoo   # use the real Topology Zoo dataset
//	syrep-bench -csv results.csv       # dump raw data for plotting
//	syrep-bench -metrics-json m.json   # observe runs; dump per-run metrics
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"syrep/internal/benchmark"
	"syrep/internal/resilience"
	"syrep/internal/topozoo"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "syrep-bench:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("syrep-bench", flag.ContinueOnError)
	fig := fs.String("fig", "all", "figure to regenerate: 5|7a|7b|7c|7d|8|9|warm|verify|alldests|all")
	timeout := fs.Duration("timeout", 10*time.Second, "per-instance timeout (paper: 20 min)")
	maxNodes := fs.Int("max-nodes", 28, "largest generated instance")
	seedsPerSize := fs.Int("seeds", 1, "generated instances per size")
	zooDir := fs.String("zoo-dir", "", "directory of real Topology Zoo .graphml files (optional)")
	csvPath := fs.String("csv", "", "also write raw results as CSV")
	metricsJSON := fs.String("metrics-json", "",
		"observe every run and write the results with per-run metrics as JSON to this file")
	coldwarmJSON := fs.String("coldwarm-json", "",
		"write the cold-vs-warm comparison rows as JSON to this file (fig warm/all)")
	verifyJSON := fs.String("verify-json", "",
		"write the brute-vs-poly verification comparison rows as JSON to this file (fig verify/all)")
	alldestsJSON := fs.String("alldests-json", "",
		"write the batch-vs-sequential all-destinations rows as JSON to this file (fig alldests/all)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	suite, err := buildSuite(*zooDir, *maxNodes, *seedsPerSize)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "suite: %d instances, per-instance timeout %s\n\n", len(suite), *timeout)

	h := &harness{timeout: *timeout, csvPath: *csvPath, metricsJSON: *metricsJSON,
		coldwarmJSON: *coldwarmJSON, verifyJSON: *verifyJSON, alldestsJSON: *alldestsJSON}
	ctx := context.Background()
	if err := dispatch(ctx, w, h, suite, *fig); err != nil {
		return err
	}
	return h.flushMetrics()
}

func dispatch(ctx context.Context, w io.Writer, h *harness, suite []topozoo.Instance, fig string) error {
	switch fig {
	case "5":
		return fig5(ctx, w, suite)
	case "7a":
		return fig7(ctx, w, h, suite, 2, false)
	case "7b":
		return fig7(ctx, w, h, suite, 2, true)
	case "7c":
		return fig7(ctx, w, h, suite, 3, false)
	case "7d":
		return fig7(ctx, w, h, suite, 3, true)
	case "8", "9":
		return fig89(ctx, w, h, suite, fig == "8")
	case "warm":
		return figWarm(ctx, w, h, suite)
	case "verify":
		return figVerify(ctx, w, h)
	case "alldests":
		return figAllDests(ctx, w, h)
	case "all":
		if err := fig5(ctx, w, suite); err != nil {
			return err
		}
		if err := figWarm(ctx, w, h, suite); err != nil {
			return err
		}
		if err := figVerify(ctx, w, h); err != nil {
			return err
		}
		if err := figAllDests(ctx, w, h); err != nil {
			return err
		}
		for _, k := range []int{2, 3} {
			results, err := h.runAll(ctx, suite, k)
			if err != nil {
				return err
			}
			if err := renderAll(w, results, k); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("unknown figure %q", fig)
	}
}

// harness carries the output options shared by every figure run and
// accumulates results for the final metrics dump.
type harness struct {
	timeout      time.Duration
	csvPath      string
	metricsJSON  string
	coldwarmJSON string
	verifyJSON   string
	alldestsJSON string
	all          []benchmark.Result
}

func (h *harness) runAll(ctx context.Context, suite []topozoo.Instance, k int) ([]benchmark.Result, error) {
	results := benchmark.Run(ctx, suite, benchmark.Config{
		K:       k,
		Timeout: h.timeout,
		Observe: h.metricsJSON != "",
	})
	h.all = append(h.all, results...)
	if h.csvPath != "" {
		if err := appendCSV(h.csvPath, results); err != nil {
			return nil, err
		}
	}
	return results, nil
}

// flushMetrics writes every accumulated result — with its per-run metrics
// snapshot — as one JSON array.
func (h *harness) flushMetrics() error {
	if h.metricsJSON == "" {
		return nil
	}
	f, err := os.Create(h.metricsJSON)
	if err != nil {
		return err
	}
	if err := benchmark.WriteJSONResults(f, h.all); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func buildSuite(zooDir string, maxNodes, seeds int) ([]topozoo.Instance, error) {
	if zooDir != "" {
		return topozoo.LoadGraphMLDir(zooDir)
	}
	all := topozoo.Suite(topozoo.SuiteConfig{
		MinNodes:     8,
		MaxNodes:     maxNodes,
		Step:         4,
		SeedsPerSize: seeds,
	})
	// -max-nodes caps the embedded networks too, so small runs stay small.
	out := all[:0]
	for _, inst := range all {
		if inst.Net.NumNodes() <= maxNodes {
			out = append(out, inst)
		}
	}
	return out, nil
}

func fig5(ctx context.Context, w io.Writer, suite []topozoo.Instance) error {
	fmt.Fprintln(w, "== Figure 5: effect of the structural reduction rules ==")
	if err := benchmark.WriteReductionEffects(ctx, w, suite); err != nil {
		return err
	}
	fmt.Fprintln(w)
	return nil
}

func fig7(ctx context.Context, w io.Writer, h *harness, suite []topozoo.Instance, k int, ratio bool) error {
	results, err := h.runAll(ctx, suite, k)
	if err != nil {
		return err
	}
	if ratio {
		fmt.Fprintf(w, "== Figure 7%s: combined/baseline runtime ratios (k=%d) ==\n", figLetter(k, true), k)
		if err := benchmark.WriteRatios(w, results, resilience.Combined, resilience.Baseline); err != nil {
			return err
		}
	} else {
		fmt.Fprintf(w, "== Figure 7%s: cactus plot (k=%d) ==\n", figLetter(k, false), k)
		if err := benchmark.WriteCactus(w, results,
			[]resilience.Strategy{resilience.Baseline, resilience.HeuristicOnly, resilience.ReductionOnly, resilience.Combined}); err != nil {
			return err
		}
	}
	fmt.Fprintln(w)
	return benchmark.WriteSummary(w, results)
}

func figLetter(k int, ratio bool) string {
	switch {
	case k == 2 && !ratio:
		return "a"
	case k == 2 && ratio:
		return "b"
	case k == 3 && !ratio:
		return "c"
	default:
		return "d"
	}
}

// figWarm renders the cold-vs-warm dynamic-repair comparison: each instance
// re-solved after 1–2 random edge failures, from scratch and warm-started
// from the cached base table.
func figWarm(ctx context.Context, w io.Writer, h *harness, suite []topozoo.Instance) error {
	fmt.Fprintln(w, "== Warm-start dynamic repair vs cold synthesis ==")
	rows, err := benchmark.WriteColdWarm(ctx, w, suite, benchmark.ColdWarmConfig{Timeout: h.timeout})
	if err != nil {
		return err
	}
	fmt.Fprintln(w)
	if h.coldwarmJSON == "" {
		return nil
	}
	f, err := os.Create(h.coldwarmJSON)
	if err != nil {
		return err
	}
	if err := benchmark.WriteColdWarmJSON(f, rows); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// figVerify renders the brute-force-versus-polynomial verification backend
// comparison on generated corrupted instances across k = 1..4.
func figVerify(ctx context.Context, w io.Writer, h *harness) error {
	fmt.Fprintln(w, "== Verification backends: brute-force oracle vs poly checker ==")
	rows, err := benchmark.WriteVerifyBench(ctx, w, benchmark.VerifyBenchConfig{})
	if err != nil {
		return err
	}
	fmt.Fprintln(w)
	if h.verifyJSON == "" {
		return nil
	}
	f, err := os.Create(h.verifyJSON)
	if err != nil {
		return err
	}
	if err := benchmark.WriteVerifyBenchJSON(f, rows); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// figAllDests renders the all-destinations batch-versus-sequential
// comparison on embedded topologies, with the differential cross-check.
func figAllDests(ctx context.Context, w io.Writer, h *harness) error {
	fmt.Fprintln(w, "== All destinations: batch fan-out vs N sequential runs ==")
	rows, err := benchmark.WriteAllDestsBench(ctx, w, benchmark.AllDestsConfig{Timeout: h.timeout})
	if err != nil {
		return err
	}
	fmt.Fprintln(w)
	if h.alldestsJSON == "" {
		return nil
	}
	f, err := os.Create(h.alldestsJSON)
	if err != nil {
		return err
	}
	if err := benchmark.WriteAllDestsBenchJSON(f, rows); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fig89(ctx context.Context, w io.Writer, h *harness, suite []topozoo.Instance, byEdges bool) error {
	figName, axis := "9", "nodes"
	if byEdges {
		figName, axis = "8", "edges"
	}
	for _, k := range []int{2, 3} {
		results, err := h.runAll(ctx, suite, k)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "== Figure %s: %s vs runtime (combined, k=%d) ==\n", figName, axis, k)
		if err := benchmark.WriteScatter(w, results, resilience.Combined, byEdges); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	return nil
}

func renderAll(w io.Writer, results []benchmark.Result, k int) error {
	fmt.Fprintf(w, "== Figure 7 (k=%d): cactus ==\n", k)
	if err := benchmark.WriteCactus(w, results,
		[]resilience.Strategy{resilience.Baseline, resilience.HeuristicOnly, resilience.ReductionOnly, resilience.Combined}); err != nil {
		return err
	}
	fmt.Fprintf(w, "\n== Figure 7 (k=%d): combined/baseline ratios ==\n", k)
	if err := benchmark.WriteRatios(w, results, resilience.Combined, resilience.Baseline); err != nil {
		return err
	}
	fmt.Fprintf(w, "\n== Figure 8 (k=%d): edges vs runtime (combined) ==\n", k)
	if err := benchmark.WriteScatter(w, results, resilience.Combined, true); err != nil {
		return err
	}
	fmt.Fprintf(w, "\n== Figure 9 (k=%d): nodes vs runtime (combined) ==\n", k)
	if err := benchmark.WriteScatter(w, results, resilience.Combined, false); err != nil {
		return err
	}
	fmt.Fprintf(w, "\n== Summary (k=%d) ==\n", k)
	if err := benchmark.WriteSummary(w, results); err != nil {
		return err
	}
	fmt.Fprintln(w)
	return nil
}

func appendCSV(path string, results []benchmark.Result) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	return benchmark.WriteCSV(f, results)
}
