// Package benchmark reproduces the evaluation of the SyRep paper
// (Section V): it runs the synthesis strategies over a topology suite with
// per-instance timeouts and renders the paper's figures as text tables —
// cactus plots (Fig. 7a/7c), per-instance ratio plots (Fig. 7b/7d),
// size-versus-runtime scatters (Fig. 8/9), and the structural-reduction
// effect table (Fig. 5).
package benchmark

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"time"

	"syrep/internal/bdd"
	"syrep/internal/encode"
	"syrep/internal/obs"
	"syrep/internal/reduce"
	"syrep/internal/resilience"
	"syrep/internal/topozoo"
)

// Result is the outcome of one (instance, method, k) run.
type Result struct {
	Instance string
	Nodes    int
	Edges    int
	Method   resilience.Strategy
	K        int
	Solved   bool
	Elapsed  time.Duration
	// TimedOut distinguishes timeouts from genuine unsolvability.
	TimedOut bool
	// MemOut reports BDD node-limit exhaustion (the analogue of the
	// paper's 128 GB memory limit).
	MemOut bool
	// Partial reports that a timed-out or memed-out run still salvaged a
	// usable routing via the anytime supervisor — "timeout with a partial
	// routing" versus "timeout with nothing".
	Partial bool
	// Residual counts the failing deliveries of the salvaged partial
	// routing (0 means only certification was cut short; -1 means the run
	// died before the routing could be priced). Meaningful only when
	// Partial is set.
	Residual int
	// DegradedStage names the pipeline stage a partial run died in.
	DegradedStage string
	// RepairUsed reports whether the BDD repair stage ran (paper: "repair
	// was initiated only for 41 networks").
	RepairUsed bool
	Err        string
	// Metrics is the run's observability snapshot (per-stage wall times and
	// subsystem counters), collected when Config.Observe is set; nil
	// otherwise. Each run gets its own obs.Observer, so counts are
	// per-(instance, method, k).
	Metrics *obs.Snapshot
}

// Config drives a benchmark run.
type Config struct {
	// K is the resilience level (the paper uses 2 and 3).
	K int
	// Timeout bounds each (instance, method) run; 0 means none. The paper
	// used 20 minutes on a Xeon — scale down for laptop runs.
	Timeout time.Duration
	// Methods lists the strategies to compare (default: all four).
	Methods []resilience.Strategy
	// NodeLimit caps BDD nodes per run (a memory analogue of the paper's
	// 128 GB limit).
	NodeLimit int
	// Observe attaches a fresh obs.Observer to every run and stores its
	// snapshot in Result.Metrics, adding per-stage timing and counter
	// columns to the CSV/JSON outputs.
	Observe bool
}

func (c Config) withDefaults() Config {
	if len(c.Methods) == 0 {
		c.Methods = []resilience.Strategy{resilience.Baseline, resilience.HeuristicOnly, resilience.ReductionOnly, resilience.Combined}
	}
	return c
}

// Run executes the benchmark over the instances and returns one Result per
// (instance, method).
func Run(ctx context.Context, instances []topozoo.Instance, cfg Config) []Result {
	cfg = cfg.withDefaults()
	var out []Result
	for _, inst := range instances {
		for _, m := range cfg.Methods {
			if ctx.Err() != nil {
				return out
			}
			out = append(out, runOne(ctx, inst, m, cfg))
		}
	}
	return out
}

func runOne(ctx context.Context, inst topozoo.Instance, m resilience.Strategy, cfg Config) Result {
	res := Result{
		Instance: inst.Name,
		Nodes:    inst.Net.NumNodes(),
		Edges:    inst.Net.NumRealEdges(),
		Method:   m,
		K:        cfg.K,
	}
	var ob *obs.Observer
	if cfg.Observe {
		ob = obs.New(nil)
	}
	start := time.Now()
	_, rep, err := resilience.Synthesize(ctx, inst.Net, inst.Dest, cfg.K, resilience.Options{
		Strategy: m,
		Timeout:  cfg.Timeout,
		Encode:   encode.Options{NodeLimit: cfg.NodeLimit},
		Obs:      ob,
	})
	res.Elapsed = time.Since(start)
	if ob != nil {
		snap := ob.Snapshot()
		res.Metrics = &snap
	}
	if rep != nil {
		res.RepairUsed = rep.ReducedRepairUsed || rep.ExpansionRepairUsed ||
			(m == resilience.HeuristicOnly && !rep.HeuristicWasResilient)
	}
	switch {
	case err == nil:
		res.Solved = true
	case errors.Is(err, context.DeadlineExceeded):
		res.TimedOut = true
		res.Err = "timeout"
	case errors.Is(err, bdd.ErrNodeLimit):
		res.MemOut = true
		res.Err = "node-limit"
	default:
		res.Err = err.Error()
	}
	if p, ok := resilience.AsPartial(err); ok {
		res.Partial = true
		res.DegradedStage = string(p.Degradation.Stage)
		if p.ResidualUnknown {
			res.Residual = -1
			res.Err += " (partial: unpriced routing)"
		} else {
			res.Residual = len(p.Residual)
			res.Err += fmt.Sprintf(" (partial: %d residual)", len(p.Residual))
		}
	}
	return res
}

// Summary aggregates solved counts per method — the paper's headline
// numbers ("the baseline solved 120 instances while our combined method
// solved 167; repair was initiated for 41 networks").
type Summary struct {
	Method     resilience.Strategy
	Solved     int
	TimedOut   int
	MemOut     int
	Unsolvable int
	// Partials counts the timed-out or memed-out runs that still salvaged a
	// usable routing — the anytime supervisor's consolation wins.
	Partials    int
	RepairsUsed int
	TotalTime   time.Duration
}

// Summarise groups results by method.
func Summarise(results []Result) []Summary {
	byMethod := make(map[resilience.Strategy]*Summary)
	var order []resilience.Strategy
	for _, r := range results {
		s, ok := byMethod[r.Method]
		if !ok {
			s = &Summary{Method: r.Method}
			byMethod[r.Method] = s
			order = append(order, r.Method)
		}
		switch {
		case r.Solved:
			s.Solved++
			s.TotalTime += r.Elapsed
			if r.RepairUsed {
				s.RepairsUsed++
			}
		case r.TimedOut:
			s.TimedOut++
		case r.MemOut:
			s.MemOut++
		default:
			s.Unsolvable++
		}
		if r.Partial {
			s.Partials++
		}
	}
	out := make([]Summary, 0, len(order))
	for _, m := range order {
		out = append(out, *byMethod[m])
	}
	return out
}

// WriteSummary renders the per-method totals.
func WriteSummary(w io.Writer, results []Result) error {
	if _, err := fmt.Fprintf(w, "%-10s %7s %8s %7s %11s %8s %8s %12s\n",
		"method", "solved", "timeout", "memout", "unsolvable", "partial", "repairs", "total-time"); err != nil {
		return err
	}
	for _, s := range Summarise(results) {
		if _, err := fmt.Fprintf(w, "%-10s %7d %8d %7d %11d %8d %8d %12s\n",
			s.Method, s.Solved, s.TimedOut, s.MemOut, s.Unsolvable, s.Partials,
			s.RepairsUsed, s.TotalTime.Round(time.Millisecond)); err != nil {
			return err
		}
	}
	return nil
}

// CactusSeries returns, for the method, the sorted solve times — one point
// per solved instance, as in Figures 7a and 7c (each method sorted
// independently).
func CactusSeries(results []Result, m resilience.Strategy) []time.Duration {
	var times []time.Duration
	for _, r := range results {
		if r.Method == m && r.Solved {
			times = append(times, r.Elapsed)
		}
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	return times
}

// WriteCactus renders the cactus plot data: instance rank vs per-method
// cumulative-sorted CPU time.
func WriteCactus(w io.Writer, results []Result, methods []resilience.Strategy) error {
	series := make([][]time.Duration, len(methods))
	maxLen := 0
	for i, m := range methods {
		series[i] = CactusSeries(results, m)
		if len(series[i]) > maxLen {
			maxLen = len(series[i])
		}
	}
	if _, err := fmt.Fprintf(w, "%-5s", "rank"); err != nil {
		return err
	}
	for _, m := range methods {
		if _, err := fmt.Fprintf(w, " %12s", m); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	for i := 0; i < maxLen; i++ {
		if _, err := fmt.Fprintf(w, "%-5d", i+1); err != nil {
			return err
		}
		for s := range methods {
			if i < len(series[s]) {
				if _, err := fmt.Fprintf(w, " %12s", series[s][i].Round(time.Microsecond)); err != nil {
					return err
				}
			} else {
				if _, err := fmt.Fprintf(w, " %12s", "-"); err != nil {
					return err
				}
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

// RatioPoint is one instance solved by both methods, with the runtime ratio
// a/b (value < 1 means method a is faster), as in Figures 7b and 7d.
type RatioPoint struct {
	Instance string
	A, B     time.Duration
	Ratio    float64
}

// Ratios computes the per-instance runtime ratios a/b over instances both
// methods solved, sorted ascending by ratio.
func Ratios(results []Result, a, b resilience.Strategy) []RatioPoint {
	type pair struct{ ra, rb *Result }
	byInstance := make(map[string]*pair)
	for i := range results {
		r := &results[i]
		if !r.Solved {
			continue
		}
		p, ok := byInstance[r.Instance]
		if !ok {
			p = &pair{}
			byInstance[r.Instance] = p
		}
		switch r.Method {
		case a:
			p.ra = r
		case b:
			p.rb = r
		}
	}
	var out []RatioPoint
	for name, p := range byInstance {
		if p.ra == nil || p.rb == nil {
			continue
		}
		rb := p.rb.Elapsed
		if rb <= 0 {
			rb = time.Nanosecond
		}
		out = append(out, RatioPoint{
			Instance: name,
			A:        p.ra.Elapsed,
			B:        p.rb.Elapsed,
			Ratio:    float64(p.ra.Elapsed) / float64(rb),
		})
	}
	// Tie-break on the instance name: out was collected in map order, and a
	// ratio-only comparator would leave equal ratios in that random order.
	sort.Slice(out, func(i, j int) bool {
		if out[i].Ratio != out[j].Ratio {
			return out[i].Ratio < out[j].Ratio
		}
		return out[i].Instance < out[j].Instance
	})
	return out
}

// WriteRatios renders the ratio plot data.
func WriteRatios(w io.Writer, results []Result, a, b resilience.Strategy) error {
	points := Ratios(results, a, b)
	if _, err := fmt.Fprintf(w, "%-28s %12s %12s %10s\n",
		"instance", a.String(), b.String(), "ratio"); err != nil {
		return err
	}
	for _, p := range points {
		if _, err := fmt.Fprintf(w, "%-28s %12s %12s %10.4f\n",
			p.Instance, p.A.Round(time.Microsecond), p.B.Round(time.Microsecond), p.Ratio); err != nil {
			return err
		}
	}
	return nil
}

// ScatterPoint is one solved instance for the size-vs-runtime scatters of
// Figures 8 and 9.
type ScatterPoint struct {
	Instance string
	Size     int
	Elapsed  time.Duration
}

// Scatter extracts (size, runtime) points for the method; byEdges selects
// Figure 8 (edges) over Figure 9 (nodes). Points are sorted by size.
func Scatter(results []Result, m resilience.Strategy, byEdges bool) []ScatterPoint {
	var out []ScatterPoint
	for _, r := range results {
		if r.Method != m || !r.Solved {
			continue
		}
		size := r.Nodes
		if byEdges {
			size = r.Edges
		}
		out = append(out, ScatterPoint{Instance: r.Instance, Size: size, Elapsed: r.Elapsed})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Size != out[j].Size {
			return out[i].Size < out[j].Size
		}
		return out[i].Instance < out[j].Instance
	})
	return out
}

// WriteScatter renders Figure 8/9 data for the method.
func WriteScatter(w io.Writer, results []Result, m resilience.Strategy, byEdges bool) error {
	axis := "nodes"
	if byEdges {
		axis = "edges"
	}
	if _, err := fmt.Fprintf(w, "%-28s %8s %12s\n", "instance", axis, "runtime"); err != nil {
		return err
	}
	for _, p := range Scatter(results, m, byEdges) {
		if _, err := fmt.Fprintf(w, "%-28s %8d %12s\n",
			p.Instance, p.Size, p.Elapsed.Round(time.Microsecond)); err != nil {
			return err
		}
	}
	return nil
}

// ReductionEffect is the Figure 5 table: network size before and after each
// reduction rule.
type ReductionEffect struct {
	Instance                   string
	Nodes, Edges               int
	SoundNodes, SoundEdges     int
	AggroNodes, AggroEdges     int
	SoundRemoved, AggroRemoved int
}

// ReductionEffects applies both rules to every instance. ctx cancellation
// aborts the sweep between (and inside) reductions with ctx.Err().
func ReductionEffects(ctx context.Context, instances []topozoo.Instance) ([]ReductionEffect, error) {
	out := make([]ReductionEffect, 0, len(instances))
	for _, inst := range instances {
		e := ReductionEffect{
			Instance: inst.Name,
			Nodes:    inst.Net.NumNodes(),
			Edges:    inst.Net.NumRealEdges(),
		}
		sound, err := reduce.Apply(ctx, inst.Net, inst.Dest, reduce.Sound)
		if err != nil {
			return nil, err
		}
		aggro, err := reduce.Apply(ctx, inst.Net, inst.Dest, reduce.Aggressive)
		if err != nil {
			return nil, err
		}
		e.SoundNodes = sound.Reduced.NumNodes()
		e.SoundEdges = sound.Reduced.NumRealEdges()
		e.SoundRemoved = sound.NumRemoved()
		e.AggroNodes = aggro.Reduced.NumNodes()
		e.AggroEdges = aggro.Reduced.NumRealEdges()
		e.AggroRemoved = aggro.NumRemoved()
		out = append(out, e)
	}
	return out, nil
}

// WriteReductionEffects renders the Figure 5 table.
func WriteReductionEffects(ctx context.Context, w io.Writer, instances []topozoo.Instance) error {
	effects, err := ReductionEffects(ctx, instances)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%-28s %6s %6s | %6s %6s | %6s %6s\n",
		"instance", "nodes", "edges", "sndN", "sndE", "aggN", "aggE"); err != nil {
		return err
	}
	for _, e := range effects {
		if _, err := fmt.Fprintf(w, "%-28s %6d %6d | %6d %6d | %6d %6d\n",
			e.Instance, e.Nodes, e.Edges, e.SoundNodes, e.SoundEdges,
			e.AggroNodes, e.AggroEdges); err != nil {
			return err
		}
	}
	return nil
}

// metricStages lists the pipeline stages exported as per-row CSV timing
// columns, in pipeline order.
var metricStages = []resilience.Stage{
	resilience.StageReduce, resilience.StageHeuristic, resilience.StageSynth,
	resilience.StageVerifyReduced, resilience.StageRepairReduced,
	resilience.StageExpand, resilience.StageVerify, resilience.StageRepair,
	resilience.StageFinalVerify,
}

// metricCounters lists the subsystem counters exported as per-row CSV
// columns, paired with their headers.
var metricCounters = []struct{ header, name string }{
	{"bdd_mk_calls", obs.BDDMkCalls},
	{"bdd_peak_nodes", obs.BDDPeakNodes},
	{"verify_scenarios", obs.VerifyScenarios},
	{"verify_traces", obs.VerifyTraces},
	{"repair_iterations", obs.RepairIterations},
}

// WriteCSV emits the raw results as CSV for external plotting. Rows carry
// per-stage wall-time and counter columns, zero when the run was not
// observed (Config.Observe unset).
func WriteCSV(w io.Writer, results []Result) error {
	header := "instance,nodes,edges,method,k,solved,timedout,partial,residual,stage,repair,elapsed_us,err"
	for _, st := range metricStages {
		header += fmt.Sprintf(",%s_us", st)
	}
	for _, c := range metricCounters {
		header += "," + c.header
	}
	if _, err := fmt.Fprintln(w, header); err != nil {
		return err
	}
	for _, r := range results {
		if _, err := fmt.Fprintf(w, "%s,%d,%d,%s,%d,%t,%t,%t,%d,%s,%t,%d,%q",
			r.Instance, r.Nodes, r.Edges, r.Method, r.K, r.Solved, r.TimedOut,
			r.Partial, r.Residual, r.DegradedStage,
			r.RepairUsed, r.Elapsed.Microseconds(), r.Err); err != nil {
			return err
		}
		var snap obs.Snapshot
		if r.Metrics != nil {
			snap = *r.Metrics
		}
		for _, st := range metricStages {
			if _, err := fmt.Fprintf(w, ",%d", snap.StageDuration(string(st)).Microseconds()); err != nil {
				return err
			}
		}
		for _, c := range metricCounters {
			v := snap.Counter(c.name)
			if c.name == obs.BDDPeakNodes {
				v = snap.Gauge(c.name)
			}
			if _, err := fmt.Fprintf(w, ",%d", v); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSONResults emits the results — including the full per-run metrics
// snapshot when present — as an indented JSON array, for the benchmark
// driver's --metrics-json output and the CI smoke-run artifact.
func WriteJSONResults(w io.Writer, results []Result) error {
	type row struct {
		Instance  string        `json:"instance"`
		Nodes     int           `json:"nodes"`
		Edges     int           `json:"edges"`
		Method    string        `json:"method"`
		K         int           `json:"k"`
		Solved    bool          `json:"solved"`
		TimedOut  bool          `json:"timedout"`
		MemOut    bool          `json:"memout"`
		Partial   bool          `json:"partial"`
		Residual  int           `json:"residual"`
		Stage     string        `json:"stage,omitempty"`
		Repair    bool          `json:"repair"`
		ElapsedUS int64         `json:"elapsed_us"`
		Err       string        `json:"err,omitempty"`
		Metrics   *obs.Snapshot `json:"metrics,omitempty"`
	}
	rows := make([]row, 0, len(results))
	for _, r := range results {
		rows = append(rows, row{
			Instance: r.Instance, Nodes: r.Nodes, Edges: r.Edges,
			Method: r.Method.String(), K: r.K, Solved: r.Solved,
			TimedOut: r.TimedOut, MemOut: r.MemOut, Partial: r.Partial,
			Residual: r.Residual, Stage: r.DegradedStage, Repair: r.RepairUsed,
			ElapsedUS: r.Elapsed.Microseconds(), Err: r.Err, Metrics: r.Metrics,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rows)
}
