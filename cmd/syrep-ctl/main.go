// Command syrep-ctl runs the churn-driven repair controller: a long-running
// reconciliation loop that consumes link up/down events and keeps
// per-destination forwarding tables current, pushing table deltas to a
// southbound sink.
//
// Usage:
//
//	syrep-ctl -sim [-seed N] [-epochs N] [-nodes N] [-num-dests N] [-out file]
//	syrep-ctl [-topology name] [-dests a,b] [-k N] [-sink URL] [-out file]
//	syrep-ctl [-topology name] -links
//
// In -sim mode a seeded Poisson churn simulation drives the controller
// against an in-memory sink and prints its accounting (optionally writing
// the SLO artifact JSON to -out).
//
// Otherwise events are read from stdin, one per line:
//
//	down <link>
//	up <link>
//
// where <link> is a canonical edge key (list them with -links). Deltas go
// to the REST sink at -sink, or to stdout as JSON lines when -sink is
// empty. On EOF or SIGTERM the controller drains, any dead-lettered deltas
// are flushed to stderr as JSON lines, and a settlement summary is printed;
// -out receives the final metrics snapshot.
//
// With -journal-dir the controller journals every state transition to an
// append-only, checksummed write-ahead log before it takes effect; -recover
// replays that journal on startup so a restarted controller resumes exactly
// where the crashed one stopped, and -journal-dump prints the journal's
// records as JSON lines for inspection.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"syrep/internal/cache"
	"syrep/internal/controller"
	"syrep/internal/journal"
	"syrep/internal/network"
	"syrep/internal/obs"
	"syrep/internal/retry"
	"syrep/internal/topozoo"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdin, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "syrep-ctl:", err)
		os.Exit(1)
	}
}

// jsonSink writes each delta as one JSON line — the stdout sink for piping
// into other tools.
type jsonSink struct {
	mu  sync.Mutex
	enc *json.Encoder
}

func (s *jsonSink) Push(_ context.Context, d controller.Delta) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.enc.Encode(d)
}

func run(ctx context.Context, args []string, in io.Reader, w, errW io.Writer) error {
	fs := flag.NewFlagSet("syrep-ctl", flag.ContinueOnError)
	sim := fs.Bool("sim", false, "run the seeded churn simulation instead of reading events")
	seed := fs.Int64("seed", 42, "simulation seed")
	epochs := fs.Int("epochs", 1000, "simulation target: distinct topology epochs to drive")
	nodes := fs.Int("nodes", 8, "simulation topology size (ring + skip-2 chords)")
	numDests := fs.Int("num-dests", 2, "simulation destination count")
	topology := fs.String("topology", "", "embedded topology name for stream mode (default: the sim ring)")
	destsFlag := fs.String("dests", "", "comma-separated destination node names (default: all nodes)")
	k := fs.Int("k", 1, "resilience level to synthesize and repair for")
	sinkURL := fs.String("sink", "", "REST sink URL (empty: deltas to stdout as JSON lines)")
	links := fs.Bool("links", false, "print the topology's canonical link keys and exit")
	out := fs.String("out", "", "write the final metrics snapshot (sim: SLO artifact) JSON here")
	journalDir := fs.String("journal-dir", "", "write-ahead journal directory for crash-safe controller state")
	doRecover := fs.Bool("recover", false, "replay -journal-dir on startup and resume where the last run stopped")
	journalDump := fs.Bool("journal-dump", false, "print the -journal-dir records as JSON lines and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *journalDump {
		if *journalDir == "" {
			return errors.New("-journal-dump requires -journal-dir")
		}
		fsys, err := journal.NewDirFS(*journalDir)
		if err != nil {
			return err
		}
		stats, err := controller.DumpJournal(fsys, w)
		if err != nil {
			return err
		}
		fmt.Fprintf(errW, "syrep-ctl: journal: snapshot=%v records=%d tornTail=%v\n",
			stats.Snapshot, stats.Records, stats.TornTail)
		return nil
	}
	if *doRecover && *journalDir == "" {
		return errors.New("-recover requires -journal-dir")
	}

	if *sim {
		return runSim(ctx, *seed, *epochs, *nodes, *numDests, *out, w)
	}

	base, err := pickTopology(*topology, *nodes)
	if err != nil {
		return err
	}
	if *links {
		keys := append([]string(nil), base.EdgeKeys()...)
		sort.Strings(keys)
		for _, key := range keys {
			fmt.Fprintln(w, key)
		}
		return nil
	}

	var dests []string
	if *destsFlag != "" {
		for _, d := range strings.Split(*destsFlag, ",") {
			dests = append(dests, strings.TrimSpace(d))
		}
	}
	var sink controller.Sink
	if *sinkURL != "" {
		sink = &controller.RESTSink{URL: *sinkURL}
	} else {
		sink = &jsonSink{enc: json.NewEncoder(w)}
	}

	ob := obs.New(nil)
	var jrn *journal.Journal
	if *journalDir != "" {
		fsys, err := journal.NewDirFS(*journalDir)
		if err != nil {
			return err
		}
		jrn, err = journal.Open(fsys, journal.Options{Obs: ob})
		if err != nil {
			return err
		}
		defer jrn.Close()
	}

	var mu sync.Mutex
	settled := map[string]int{}
	settledTotal := 0
	cfg := controller.Config{
		Base:    base,
		Dests:   dests,
		K:       *k,
		Sink:    sink,
		Cache:   cache.New(cache.Config{MaxEntries: 1024, Obs: ob}),
		Breaker: retry.BreakerConfig{Threshold: 5, Cooldown: 5 * time.Second},
		Obs:     ob,
		Journal: jrn,
		OnSettle: func(s controller.Settlement) {
			mu.Lock()
			defer mu.Unlock()
			settled[s.Outcome.String()]++
			settledTotal++
			if s.Err != nil {
				fmt.Fprintf(errW, "syrep-ctl: %s: %v\n", s.Event, s.Err)
			}
		},
	}
	var ctl *controller.Controller
	var err2 error
	if *doRecover {
		var info controller.RecoveryInfo
		ctl, info, err2 = controller.Recover(cfg)
		if err2 == nil {
			fmt.Fprintf(errW, "syrep-ctl: recovered epoch=%d down=%d records=%d tornTail=%v poisoned=%d cacheSeeded=%d\n",
				info.Epoch, len(info.Down), info.Records, info.TornTail, len(info.Poisoned), info.CacheSeeded)
		}
	} else {
		ctl, err2 = controller.New(cfg)
	}
	if err2 != nil {
		return err2
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	exit := make(chan error, 1)
	go func() { exit <- ctl.Run(runCtx) }()

	accepted, err := feedEvents(runCtx, ctl, in)
	if err != nil {
		cancel()
		<-exit
		return err
	}
	// EOF: let the offered events settle (interrupt skips straight to the
	// drain), then shut down and report.
	for ctx.Err() == nil {
		mu.Lock()
		done := settledTotal >= accepted
		mu.Unlock()
		if done {
			break
		}
		select {
		case <-ctx.Done():
		case <-time.After(10 * time.Millisecond):
		}
	}
	cancel()
	runErr := <-exit
	flushDeadLetters(errW, ctl.DeadLetters())
	if runErr != nil && !errors.Is(runErr, context.Canceled) {
		return runErr
	}

	mu.Lock()
	defer mu.Unlock()
	fmt.Fprintf(errW, "syrep-ctl: epochs=%d settled=%v dead-letters=%d\n",
		ctl.Epoch(), settled, len(ctl.DeadLetters()))
	if *out != "" {
		return writeSnapshot(ob, *out)
	}
	return nil
}

// flushDeadLetters writes every dead-lettered delta as one JSON line so an
// operator (or the process supervisor's log collector) can replay or triage
// them after shutdown — the queue is in-memory and would otherwise vanish
// with the process unless a journal was configured.
func flushDeadLetters(w io.Writer, dls []controller.DeadLetter) {
	enc := json.NewEncoder(w)
	for _, dl := range dls {
		_ = enc.Encode(struct {
			DeadLetter controller.Delta `json:"deadLetter"`
			Err        string           `json:"err"`
			Attempts   int              `json:"attempts"`
		}{dl.Delta, dl.Err.Error(), dl.Attempts})
	}
}

// feedEvents parses "down <link>" / "up <link>" lines into offers, with
// bounded re-offering on backpressure. It returns how many events the
// controller accepted.
func feedEvents(ctx context.Context, ctl *controller.Controller, in io.Reader) (int, error) {
	accepted := 0
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		if ctx.Err() != nil {
			return accepted, nil // interrupted: stop reading, let the drain settle
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 || (fields[0] != "down" && fields[0] != "up") {
			return accepted, fmt.Errorf("bad event line %q (want: down <link> | up <link>)", line)
		}
		ev := controller.Event{Link: fields[1], Up: fields[0] == "up"}
		for {
			err := ctl.Offer(ev)
			if err == nil {
				accepted++
				break
			}
			if !controller.Retryable(err) {
				return accepted, fmt.Errorf("offer %s: %w", ev, err)
			}
			// Backpressure: wait out the inbox, then re-offer.
			select {
			case <-ctx.Done():
				return accepted, nil
			case <-time.After(10 * time.Millisecond):
			}
		}
	}
	return accepted, sc.Err()
}

func runSim(ctx context.Context, seed int64, epochs, nodes, dests int, out string, w io.Writer) error {
	res, err := controller.RunSim(ctx, controller.SimConfig{
		Seed:         seed,
		Nodes:        nodes,
		Dests:        dests,
		TargetEpochs: epochs,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "churn sim: seed=%d epochs=%d offered=%d rejected=%d settled=%v\n",
		seed, res.Epochs, res.Offered, res.Rejected, res.Settled)
	fmt.Fprintf(w, "           coalesced=%d stale=%d warm=%d cold=%d degraded=%d dead-letters=%d\n",
		res.Coalesced, res.Stale, res.WarmRepairs, res.ColdSynths, res.Degraded, res.DeadLetters)
	fmt.Fprintf(w, "           latency: count=%d p50=%vs p99=%vs\n",
		res.Latency.Count, res.Latency.Quantile(0.5), res.Latency.Quantile(0.99))
	if out != "" {
		data, err := json.MarshalIndent(struct {
			Seed         int64                 `json:"seed"`
			TargetEpochs int                   `json:"targetEpochs"`
			Result       *controller.SimResult `json:"result"`
		}{seed, epochs, res}, "", "  ")
		if err != nil {
			return err
		}
		return os.WriteFile(out, append(data, '\n'), 0o644)
	}
	return nil
}

// pickTopology resolves the stream-mode base topology: an embedded zoo
// network by name, or the simulation ring when unnamed.
func pickTopology(name string, nodes int) (*network.Network, error) {
	if name == "" {
		return controller.SimNetwork(nodes)
	}
	var known []string
	for _, inst := range topozoo.Embedded() {
		if strings.EqualFold(inst.Name, name) {
			return inst.Net, nil
		}
		known = append(known, inst.Name)
	}
	return nil, fmt.Errorf("unknown topology %q (embedded: %s)", name, strings.Join(known, ", "))
}

func writeSnapshot(ob *obs.Observer, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := ob.Snapshot().WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
