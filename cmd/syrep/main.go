// Command syrep synthesises, verifies, repairs and reduces fast re-route
// forwarding tables, mirroring the SyRep prototype's command-line workflow.
//
// Usage:
//
//	syrep list
//	syrep show       -topo <name|file.graphml>
//	syrep reduce     -topo <...> [-dest <node>] [-rule sound|aggressive]
//	syrep synthesize -topo <...> [-dest <node>] [-k N] [-strategy S] [-o table.json]
//	syrep synthesize-all -topo <...> [-dests a,b,...] [-k N] [-strategy S] [-workers N] [-o tables.json]
//	syrep verify     -topo <...> -routing table.json [-k N] [-backend auto|brute|poly]
//	syrep repair     -topo <...> -routing table.json [-k N] [-o repaired.json]
//	syrep analyze    -topo <...> -routing table.json [-max-k N]
//
// The synthesize, verify, and repair subcommands accept -metrics-out (per-run
// counters and per-stage wall times, JSON or Prometheus text by extension)
// and -trace-out (the stage span stream as JSON).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"syrep/internal/network"
	"syrep/internal/obs"
	"syrep/internal/reduce"
	"syrep/internal/resilience"
	"syrep/internal/routing"
	"syrep/internal/topozoo"
	"syrep/internal/verify"
	"syrep/internal/verify/poly"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "syrep:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	if len(args) == 0 {
		return usageError()
	}
	switch args[0] {
	case "list":
		return cmdList(w)
	case "show":
		return cmdShow(args[1:], w)
	case "reduce":
		return cmdReduce(args[1:], w)
	case "synthesize":
		return cmdSynthesize(args[1:], w)
	case "synthesize-all":
		return cmdSynthesizeAll(args[1:], w)
	case "verify":
		return cmdVerify(args[1:], w)
	case "repair":
		return cmdRepair(args[1:], w)
	case "analyze":
		return cmdAnalyze(args[1:], w)
	default:
		return usageError()
	}
}

func usageError() error {
	return fmt.Errorf("usage: syrep <list|show|reduce|synthesize|synthesize-all|verify|repair|analyze> [flags]")
}

// obsFlags carries the shared observability flags of the synthesize, verify,
// and repair subcommands.
type obsFlags struct {
	metricsOut *string
	traceOut   *string
	recorder   *obs.Recorder
}

func addObsFlags(fs *flag.FlagSet) *obsFlags {
	return &obsFlags{
		metricsOut: fs.String("metrics-out", "",
			"write run metrics to this file (JSON when it ends in .json, Prometheus text otherwise)"),
		traceOut: fs.String("trace-out", "", "write the stage span trace to this file as JSON"),
	}
}

// observer builds the run's observer, or returns nil when no output was
// requested (the pipeline then runs fully unobserved).
func (o *obsFlags) observer() *obs.Observer {
	if *o.metricsOut == "" && *o.traceOut == "" {
		return nil
	}
	if *o.traceOut != "" {
		o.recorder = &obs.Recorder{}
		return obs.New(o.recorder)
	}
	return obs.New(nil)
}

// flush writes the requested metrics and trace files. It runs even when the
// run itself failed, so a timed-out run still leaves its measurements behind.
func (o *obsFlags) flush(ob *obs.Observer, w io.Writer) error {
	if ob == nil {
		return nil
	}
	if *o.metricsOut != "" {
		if err := writeFileWith(*o.metricsOut, func(f io.Writer) error {
			return ob.Snapshot().WriteMetrics(f, *o.metricsOut)
		}); err != nil {
			return err
		}
		fmt.Fprintf(w, "metrics written to %s\n", *o.metricsOut)
	}
	if *o.traceOut != "" {
		if err := writeFileWith(*o.traceOut, o.recorder.WriteJSON); err != nil {
			return err
		}
		fmt.Fprintf(w, "trace written to %s\n", *o.traceOut)
	}
	return nil
}

func writeFileWith(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// loadTopology resolves -topo: an embedded instance name or a GraphML file.
func loadTopology(name string) (*network.Network, error) {
	if strings.HasSuffix(name, ".graphml") {
		f, err := os.Open(name)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		base := strings.TrimSuffix(name[strings.LastIndex(name, "/")+1:], ".graphml")
		return topozoo.ParseGraphML(f, base)
	}
	for _, inst := range topozoo.Embedded() {
		if strings.EqualFold(inst.Name, name) {
			return inst.Net, nil
		}
	}
	return nil, fmt.Errorf("unknown topology %q (run 'syrep list')", name)
}

func resolveDest(net *network.Network, destName string) (network.NodeID, error) {
	if destName == "" {
		return 0, nil
	}
	d := net.NodeByName(destName)
	if d == network.NoNode {
		return 0, fmt.Errorf("unknown destination node %q", destName)
	}
	return d, nil
}

func cmdList(w io.Writer) error {
	fmt.Fprintf(w, "%-12s %6s %6s %6s\n", "name", "nodes", "edges", "conn")
	for _, inst := range topozoo.Embedded() {
		fmt.Fprintf(w, "%-12s %6d %6d %6d\n",
			inst.Name, inst.Net.NumNodes(), inst.Net.NumRealEdges(), inst.Net.EdgeConnectivity())
	}
	return nil
}

func cmdShow(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("show", flag.ContinueOnError)
	topo := fs.String("topo", "", "topology name or .graphml file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	net, err := loadTopology(*topo)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, net)
	for _, e := range net.RealEdges() {
		u, v := net.Endpoints(e)
		fmt.Fprintf(w, "  %-8s %s -- %s\n", net.EdgeName(e), net.NodeName(u), net.NodeName(v))
	}
	return nil
}

func cmdReduce(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("reduce", flag.ContinueOnError)
	topo := fs.String("topo", "", "topology name or .graphml file")
	dest := fs.String("dest", "", "destination node (default: first node)")
	rule := fs.String("rule", "aggressive", "reduction rule: sound|aggressive")
	if err := fs.Parse(args); err != nil {
		return err
	}
	net, err := loadTopology(*topo)
	if err != nil {
		return err
	}
	d, err := resolveDest(net, *dest)
	if err != nil {
		return err
	}
	var r reduce.Rule
	switch *rule {
	case "sound":
		r = reduce.Sound
	case "aggressive":
		r = reduce.Aggressive
	default:
		return fmt.Errorf("unknown rule %q", *rule)
	}
	rd, err := reduce.Apply(context.Background(), net, d, r)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s: %d nodes / %d edges -> %d nodes / %d edges (%d removed, rule %s)\n",
		net.Name(), net.NumNodes(), net.NumRealEdges(),
		rd.Reduced.NumNodes(), rd.Reduced.NumRealEdges(), rd.NumRemoved(), r)
	return nil
}

func cmdSynthesize(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("synthesize", flag.ContinueOnError)
	topo := fs.String("topo", "", "topology name or .graphml file")
	dest := fs.String("dest", "", "destination node (default: first node)")
	k := fs.Int("k", 2, "resilience level")
	strategy := fs.String("strategy", "combined", "baseline|heuristic|reduction|combined")
	timeout := fs.Duration("timeout", 2*time.Minute, "per-run timeout")
	out := fs.String("o", "", "write the routing table as JSON to this file")
	of := addObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	net, err := loadTopology(*topo)
	if err != nil {
		return err
	}
	d, err := resolveDest(net, *dest)
	if err != nil {
		return err
	}
	s, err := parseStrategy(*strategy)
	if err != nil {
		return err
	}
	ob := of.observer()
	r, rep, err := resilience.Synthesize(context.Background(), net, d, *k, resilience.Options{
		Strategy: s,
		Timeout:  *timeout,
		Obs:      ob,
	})
	if ferr := of.flush(ob, w); ferr != nil {
		return ferr
	}
	if err != nil {
		if p, ok := resilience.AsPartial(err); ok {
			printPartial(w, p)
			if werr := emitRouting(w, p.Routing, *out); werr != nil {
				return werr
			}
		}
		return err
	}
	fmt.Fprintf(w, "synthesised perfectly %d-resilient routing to %s in %s (strategy %s)\n",
		*k, net.NodeName(d), rep.Elapsed.Round(time.Millisecond), rep.Strategy)
	if rep.Reduced {
		fmt.Fprintf(w, "  reduction removed %d nodes; repair used: reduced=%v expanded=%v\n",
			rep.NodesRemoved, rep.ReducedRepairUsed, rep.ExpansionRepairUsed)
	}
	return emitRouting(w, r, *out)
}

func cmdSynthesizeAll(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("synthesize-all", flag.ContinueOnError)
	topo := fs.String("topo", "", "topology name or .graphml file")
	k := fs.Int("k", 2, "resilience level")
	strategy := fs.String("strategy", "combined", "baseline|heuristic|reduction|combined")
	timeout := fs.Duration("timeout", 2*time.Minute, "per-destination timeout")
	workers := fs.Int("workers", 0, "concurrently synthesized destinations (default: GOMAXPROCS)")
	destsFlag := fs.String("dests", "", "comma-separated destination nodes (default: every node)")
	out := fs.String("o", "", "write all tables to this file as a destination→routing JSON object")
	of := addObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	net, err := loadTopology(*topo)
	if err != nil {
		return err
	}
	s, err := parseStrategy(*strategy)
	if err != nil {
		return err
	}
	var dests []network.NodeID
	if *destsFlag != "" {
		for _, name := range strings.Split(*destsFlag, ",") {
			d, err := resolveDest(net, strings.TrimSpace(name))
			if err != nil {
				return err
			}
			dests = append(dests, d)
		}
	}
	ob := of.observer()
	results, rep, err := resilience.SynthesizeAll(context.Background(), net, *k, resilience.BatchOptions{
		Run:     resilience.Options{Strategy: s, Timeout: *timeout, Obs: ob},
		Dests:   dests,
		Workers: *workers,
		Obs:     ob,
		OnResult: func(res resilience.DestResult) {
			switch {
			case res.Err != nil:
				fmt.Fprintf(w, "  %-12s FAILED: %v\n", res.Name, res.Err)
			case res.Report != nil && res.Report.Degraded():
				fmt.Fprintf(w, "  %-12s ok (degraded)\n", res.Name)
			default:
				fmt.Fprintf(w, "  %-12s ok\n", res.Name)
			}
		},
	})
	if ferr := of.flush(ob, w); ferr != nil {
		return ferr
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "synthesised %d-resilient routings for %d/%d destinations in %s (strategy %s; %d cache hits, %d manager reuses)\n",
		*k, rep.Resilient+rep.Degraded, rep.Dests, rep.Elapsed.Round(time.Millisecond), s,
		rep.CacheHits, rep.Pool.Reuses)
	if *out != "" {
		tables := make(map[string]*routing.Routing, len(results))
		for _, res := range results {
			if res.Routing != nil {
				tables[res.Name] = res.Routing
			}
		}
		data, err := json.MarshalIndent(tables, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "routings written to %s\n", *out)
	}
	if rep.Failed > 0 {
		return fmt.Errorf("%d of %d destinations failed", rep.Failed, rep.Dests)
	}
	return nil
}

func cmdVerify(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("verify", flag.ContinueOnError)
	topo := fs.String("topo", "", "topology name or .graphml file")
	routingPath := fs.String("routing", "", "routing table JSON")
	k := fs.Int("k", 2, "resilience level")
	backendName := fs.String("backend", "auto",
		"verification backend: auto (poly fast path, brute-force oracle fallback), brute, or poly")
	of := addObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	backend, err := poly.Select(*backendName)
	if err != nil {
		return err
	}
	net, err := loadTopology(*topo)
	if err != nil {
		return err
	}
	r, err := loadRouting(net, *routingPath)
	if err != nil {
		return err
	}
	ob := of.observer()
	var rep *verify.Report
	// The closure scopes the span: its deferred end runs before the flush
	// below, and survives a panicking checker.
	err = func() (e error) {
		_, end := ob.StartStage(context.Background(), "verify")
		defer end()
		rep, e = backend.Check(context.Background(), r, *k,
			verify.Options{Counters: ob.Verify()})
		return
	}()
	if ferr := of.flush(ob, w); ferr != nil {
		return ferr
	}
	if err != nil {
		return err
	}
	if rep.Resilient {
		fmt.Fprintf(w, "routing is perfectly %d-resilient (%d scenarios, %d traces)\n",
			*k, rep.Scenarios, rep.Traces)
		return nil
	}
	fmt.Fprintf(w, "routing is NOT perfectly %d-resilient: %d failing deliveries\n",
		*k, len(rep.Failing))
	for i, f := range rep.Failing {
		if i >= 10 {
			fmt.Fprintf(w, "  ... and %d more\n", len(rep.Failing)-10)
			break
		}
		fmt.Fprintf(w, "  from %s under %v: %s\n",
			net.NodeName(f.Source), f.Failed, f.Outcome)
	}
	fmt.Fprintf(w, "suspicious entries: %d\n", len(rep.Suspicious()))
	return nil
}

func cmdRepair(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("repair", flag.ContinueOnError)
	topo := fs.String("topo", "", "topology name or .graphml file")
	routingPath := fs.String("routing", "", "routing table JSON")
	k := fs.Int("k", 2, "resilience level")
	timeout := fs.Duration("timeout", 2*time.Minute, "per-run timeout")
	out := fs.String("o", "", "write the repaired table as JSON to this file")
	of := addObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	net, err := loadTopology(*topo)
	if err != nil {
		return err
	}
	r, err := loadRouting(net, *routingPath)
	if err != nil {
		return err
	}
	ob := of.observer()
	outcome, err := resilience.Repair(context.Background(), r, *k,
		resilience.Options{Timeout: *timeout, Obs: ob})
	if ferr := of.flush(ob, w); ferr != nil {
		return ferr
	}
	if err != nil {
		if p, ok := resilience.AsPartial(err); ok {
			printPartial(w, p)
			if werr := emitRouting(w, p.Routing, *out); werr != nil {
				return werr
			}
		}
		return err
	}
	if outcome.AlreadyResilient {
		fmt.Fprintf(w, "routing is already perfectly %d-resilient; nothing to repair\n", *k)
	} else {
		fmt.Fprintf(w, "repaired: %d suspicious entries removed, %d entries changed\n",
			outcome.Removed, len(outcome.Changed))
	}
	return emitRouting(w, outcome.Routing, *out)
}

// printPartial summarises an anytime-supervisor partial result: the run ran
// out of budget or hit a fault, but still salvaged a complete (if not fully
// resilient) routing that the caller may deploy or re-repair later.
func printPartial(w io.Writer, p *resilience.Partial) {
	fmt.Fprintf(w, "degraded: run cut short in stage %q (%v)\n",
		p.Degradation.Stage, p.Degradation.Cause)
	if p.ResidualUnknown {
		fmt.Fprintln(w, "  salvaged routing with unknown residual (certification also cut short)")
	} else {
		fmt.Fprintf(w, "  salvaged routing with %d residual failing deliveries\n", len(p.Residual))
	}
}

func parseStrategy(s string) (resilience.Strategy, error) {
	switch s {
	case "baseline":
		return resilience.Baseline, nil
	case "heuristic":
		return resilience.HeuristicOnly, nil
	case "reduction":
		return resilience.ReductionOnly, nil
	case "combined":
		return resilience.Combined, nil
	default:
		return 0, fmt.Errorf("unknown strategy %q", s)
	}
}

func loadRouting(net *network.Network, path string) (*routing.Routing, error) {
	if path == "" {
		return nil, fmt.Errorf("missing -routing table.json")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return routing.Unmarshal(data, net)
}

func emitRouting(w io.Writer, r *routing.Routing, path string) error {
	if path == "" {
		fmt.Fprint(w, r)
		return nil
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "routing written to %s\n", path)
	return nil
}
