package benchmark_test

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"syrep/internal/benchmark"
	"syrep/internal/obs"
	"syrep/internal/papernet"
	"syrep/internal/resilience"
	"syrep/internal/topozoo"
)

var ctx = context.Background()

func smallSuite() []topozoo.Instance {
	fig1 := papernet.Figure1()
	out := []topozoo.Instance{
		{Name: "fig1", Net: fig1, Dest: papernet.Figure1Dest(fig1)},
	}
	for _, inst := range topozoo.Embedded() {
		if inst.Name == "Arpanet1970" { // solves quickly under every strategy
			out = append(out, inst)
		}
	}
	return out
}

var (
	runSmallOnce    sync.Once
	runSmallResults []benchmark.Result
)

// runSmall executes the shared 2-instance x 4-method benchmark exactly once
// per test binary; the rendering tests only need its immutable results.
func runSmall(t *testing.T) []benchmark.Result {
	t.Helper()
	runSmallOnce.Do(func() {
		runSmallResults = benchmark.Run(ctx, smallSuite(), benchmark.Config{
			K:       2,
			Timeout: 30 * time.Second,
		})
	})
	if len(runSmallResults) != 8 { // 2 instances x 4 methods
		t.Fatalf("results = %d, want 8", len(runSmallResults))
	}
	return runSmallResults
}

func TestRunAllStrategiesSolveSmallInstances(t *testing.T) {
	results := runSmall(t)
	for _, r := range results {
		if !r.Solved {
			t.Errorf("%s/%s: not solved (%s)", r.Instance, r.Method, r.Err)
		}
		if r.Elapsed <= 0 {
			t.Errorf("%s/%s: elapsed not recorded", r.Instance, r.Method)
		}
		if r.Nodes == 0 || r.Edges == 0 {
			t.Errorf("%s/%s: size not recorded", r.Instance, r.Method)
		}
	}
}

func TestSummarise(t *testing.T) {
	results := runSmall(t)
	sums := benchmark.Summarise(results)
	if len(sums) != 4 {
		t.Fatalf("summaries = %d, want 4", len(sums))
	}
	for _, s := range sums {
		if s.Solved != 2 {
			t.Errorf("%s: solved = %d, want 2", s.Method, s.Solved)
		}
	}
	var sb strings.Builder
	if err := benchmark.WriteSummary(&sb, results); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, m := range []string{"baseline", "heuristic", "reduction", "combined"} {
		if !strings.Contains(out, m) {
			t.Errorf("summary missing method %s:\n%s", m, out)
		}
	}
}

func TestCactusSeriesSorted(t *testing.T) {
	results := runSmall(t)
	series := benchmark.CactusSeries(results, resilience.Combined)
	if len(series) != 2 {
		t.Fatalf("series = %d points, want 2", len(series))
	}
	if series[0] > series[1] {
		t.Error("cactus series not sorted")
	}
	var sb strings.Builder
	err := benchmark.WriteCactus(&sb, results, []resilience.Strategy{resilience.Baseline, resilience.Combined})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "rank") {
		t.Error("cactus output missing header")
	}
}

func TestRatios(t *testing.T) {
	results := runSmall(t)
	points := benchmark.Ratios(results, resilience.Combined, resilience.Baseline)
	if len(points) != 2 {
		t.Fatalf("ratio points = %d, want 2", len(points))
	}
	for i := 1; i < len(points); i++ {
		if points[i-1].Ratio > points[i].Ratio {
			t.Error("ratios not sorted")
		}
	}
	var sb strings.Builder
	if err := benchmark.WriteRatios(&sb, results, resilience.Combined, resilience.Baseline); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "ratio") {
		t.Error("ratio output missing header")
	}
}

func TestScatter(t *testing.T) {
	results := runSmall(t)
	byEdges := benchmark.Scatter(results, resilience.Combined, true)
	byNodes := benchmark.Scatter(results, resilience.Combined, false)
	if len(byEdges) != 2 || len(byNodes) != 2 {
		t.Fatalf("scatter sizes: %d/%d, want 2/2", len(byEdges), len(byNodes))
	}
	if byEdges[0].Size > byEdges[1].Size {
		t.Error("scatter not sorted by size")
	}
	var sb strings.Builder
	if err := benchmark.WriteScatter(&sb, results, resilience.Combined, true); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "edges") {
		t.Error("scatter output missing axis header")
	}
}

func TestReductionEffects(t *testing.T) {
	instances := smallSuite()
	effects, err := benchmark.ReductionEffects(context.Background(), instances)
	if err != nil {
		t.Fatal(err)
	}
	if len(effects) != 2 {
		t.Fatalf("effects = %d", len(effects))
	}
	for _, e := range effects {
		if e.AggroNodes > e.SoundNodes {
			t.Errorf("%s: aggressive (%d nodes) larger than sound (%d nodes)",
				e.Instance, e.AggroNodes, e.SoundNodes)
		}
		if e.SoundNodes > e.Nodes {
			t.Errorf("%s: reduction grew the network", e.Instance)
		}
	}
	var sb strings.Builder
	if err := benchmark.WriteReductionEffects(context.Background(), &sb, instances); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "aggN") {
		t.Error("reduction table missing header")
	}
}

// TestReductionEffectsCancellation: a cancelled context aborts the sweep
// with ctx.Err() instead of grinding through every instance — previously the
// reductions ran on context.Background() and could not be cancelled at all.
func TestReductionEffectsCancellation(t *testing.T) {
	instances := smallSuite()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := benchmark.ReductionEffects(ctx, instances); !errors.Is(err, context.Canceled) {
		t.Errorf("ReductionEffects on cancelled ctx: err = %v, want context.Canceled", err)
	}
	if err := benchmark.WriteReductionEffects(ctx, io.Discard, instances); !errors.Is(err, context.Canceled) {
		t.Errorf("WriteReductionEffects on cancelled ctx: err = %v, want context.Canceled", err)
	}
}

func TestWriteCSV(t *testing.T) {
	results := runSmall(t)
	var sb strings.Builder
	if err := benchmark.WriteCSV(&sb, results); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != len(results)+1 {
		t.Errorf("CSV lines = %d, want %d", len(lines), len(results)+1)
	}
	if !strings.HasPrefix(lines[0], "instance,") {
		t.Errorf("CSV header = %q", lines[0])
	}
}

// TestObserveAttachesMetrics: Config.Observe gives every result a snapshot,
// and both renderers surface the per-stage and counter columns.
func TestObserveAttachesMetrics(t *testing.T) {
	fig1 := papernet.Figure1()
	inst := []topozoo.Instance{{Name: "fig1", Net: fig1, Dest: papernet.Figure1Dest(fig1)}}
	results := benchmark.Run(ctx, inst, benchmark.Config{
		K:       2,
		Timeout: 30 * time.Second,
		Methods: []resilience.Strategy{resilience.Combined},
		Observe: true,
	})
	if len(results) != 1 {
		t.Fatalf("results = %d, want 1", len(results))
	}
	r := results[0]
	if !r.Solved {
		t.Fatalf("fig1 not solved: %s", r.Err)
	}
	if r.Metrics == nil {
		t.Fatal("Observe set but Result.Metrics is nil")
	}
	if r.Metrics.Counter(obs.VerifyScenarios) == 0 {
		t.Error("observed run counted no verify scenarios")
	}
	if r.Metrics.StageDuration(obs.SpanTotal) <= 0 {
		t.Error("observed run recorded no total span")
	}

	var csv strings.Builder
	if err := benchmark.WriteCSV(&csv, results); err != nil {
		t.Fatal(err)
	}
	header := strings.SplitN(csv.String(), "\n", 2)[0]
	for _, col := range []string{"heuristic_us", "verify_us", "bdd_mk_calls", "verify_scenarios"} {
		if !strings.Contains(header, col) {
			t.Errorf("CSV header missing %q: %s", col, header)
		}
	}

	var js strings.Builder
	if err := benchmark.WriteJSONResults(&js, results); err != nil {
		t.Fatal(err)
	}
	var rows []struct {
		Instance string        `json:"instance"`
		Metrics  *obs.Snapshot `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(js.String()), &rows); err != nil {
		t.Fatalf("WriteJSONResults output does not parse: %v", err)
	}
	if len(rows) != 1 || rows[0].Metrics == nil {
		t.Fatalf("JSON rows = %+v, want one row with metrics", rows)
	}
	if rows[0].Metrics.Counter(obs.VerifyScenarios) != r.Metrics.Counter(obs.VerifyScenarios) {
		t.Error("JSON metrics drifted from the in-memory snapshot")
	}

	// Unobserved runs must leave Metrics nil and omit it from the JSON.
	plain := benchmark.Run(ctx, inst, benchmark.Config{
		K: 2, Timeout: 30 * time.Second, Methods: []resilience.Strategy{resilience.Combined},
	})
	if plain[0].Metrics != nil {
		t.Error("unobserved run carries metrics")
	}
	var js2 strings.Builder
	if err := benchmark.WriteJSONResults(&js2, plain); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(js2.String(), `"metrics"`) {
		t.Error("unobserved JSON row still has a metrics key")
	}
}

func TestRunHonoursContext(t *testing.T) {
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	results := benchmark.Run(cctx, smallSuite(), benchmark.Config{K: 2})
	if len(results) != 0 {
		t.Errorf("cancelled run produced %d results", len(results))
	}
}

func TestTimeoutIsRecorded(t *testing.T) {
	inst := []topozoo.Instance{{
		Name: "big",
		Net:  topozoo.Generate(topozoo.GenConfig{Nodes: 40, Seed: 1}),
		Dest: 0,
	}}
	results := benchmark.Run(ctx, inst, benchmark.Config{
		K:       3,
		Timeout: time.Millisecond,
		Methods: []resilience.Strategy{resilience.Baseline},
	})
	if len(results) != 1 {
		t.Fatalf("results = %d", len(results))
	}
	if results[0].Solved {
		t.Skip("instance solved within a millisecond; timeout untestable here")
	}
	if !results[0].TimedOut {
		t.Errorf("expected timeout, got %+v", results[0])
	}
}
