// Command perfbench is the repository's benchmark. One invocation runs one
// workload for a fixed number of seconds and prints, as the last line of its
// standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Workloads (see BENCHMARK.json for why each was chosen):
//
//   - synth: cold single-destination resilience.Synthesize (Combined) over a
//     pinned job list, closed loop with one client.
//   - churn: the churn controller in a closed loop with one link event
//     outstanding at a time.
//   - alldests: resilience.SynthesizeAll at k=1 over every destination of a
//     pinned set of embedded networks, Workers = NumCPU.
//
// A run repeats rounds of the workload until the time is up (at least two
// rounds). Every round rebuilds its inputs from the seed, which is the timed
// set-up; the same seed gives the same inputs. With --trace 0 the run prints
// the end-to-end metrics of untraced rounds. With --trace 1 it alternates
// untraced and traced rounds and prints the per-layer metrics of the traced
// ones, plus the traced rounds' wall-time overhead over the untraced ones.
//
// Correctness checks run outside the timed phase and fail the run (exit
// code 1, "correct": false): every table counted as solved is re-verified
// with brute-force verify.Check at its k, churn sink tables must match the
// last settled tables and reference no failed link, and the routing
// fingerprints of synth jobs and alldests destinations must agree across
// rounds and with any earlier run of the same seed in this checkout.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload synth --seed 1 --seconds 30 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	workload := flag.String("workload", "", "synth, churn or alldests")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 30, "measured time")
	trace := flag.Int("trace", 0, "1 = per-layer metrics from traced rounds")
	flag.Parse()

	w, err := newWorkload(*workload, *seed, sizeFull)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	duration := time.Duration(*seconds * float64(time.Second))
	// A run that has not ended two minutes after its measured time is
	// stuck; the deadline turns that into a failed run.
	ctx, cancel := context.WithTimeout(context.Background(), duration+2*time.Minute)
	defer cancel()
	res, err := run(ctx, w, config{
		seed:     *seed,
		duration: duration,
		traced:   *trace == 1,
		stateDir: goldenDir,
		log:      os.Stdout,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	line, jerr := json.Marshal(res)
	if jerr != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", jerr)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if err != nil || !res.Correct {
		os.Exit(1)
	}
}

// goldenDir, relative to the root of the checkout, holds the routing
// fingerprints of earlier runs, one file per workload and seed.
const goldenDir = ".bench_build/goldens"

// size selects the job lists: sizeFull for the benchmark, sizeSmoke for the
// package's own smoke test.
type size int

const (
	sizeFull size = iota
	sizeSmoke
)

func newWorkload(name string, seed int64, sz size) (workload, error) {
	switch name {
	case "synth":
		return newSynth(seed, sz), nil
	case "churn":
		return newChurn(seed, sz), nil
	case "alldests":
		return newAllDests(seed, sz), nil
	default:
		return nil, fmt.Errorf("unknown workload %q (want synth, churn or alldests)", name)
	}
}

// workload is one benchmark workload. A round rebuilds the inputs from the
// seed (set-up), runs every operation once (timed phase) and records what
// the checks need.
type workload interface {
	// name is the workload name as passed to --workload.
	name() string
	// opsPerRound is the fixed number of operations in one round.
	opsPerRound() int
	// round runs round r. p is nil for an untraced round.
	round(ctx context.Context, r int, p *probe) (roundResult, error)
	// check runs the correctness checks over everything the rounds
	// recorded; it is called once, after the last round, outside any
	// timed phase.
	check(ctx context.Context, cfg config) error
}

// roundResult is what one round measured.
type roundResult struct {
	// setup is the median of the round's set-up repetitions.
	setup time.Duration
	// wall is the timed phase.
	wall time.Duration
	// latencies holds one entry per attempted operation; failed operations
	// are recorded as failedLatency so they rank as missing every limit.
	latencies []time.Duration
	solved    int
	// cpu is the process's CPU time over the whole round, for the log.
	cpu time.Duration
}

// failedLatency ranks a failed operation above every real latency.
const failedLatency = time.Duration(1<<63 - 1)

type config struct {
	seed     int64
	duration time.Duration
	traced   bool
	stateDir string
	log      io.Writer
}

// minRounds is the least number of rounds in a run: the per-round
// determinism check needs two, and a traced run needs one untraced and one
// traced round.
const minRounds = 2

// run executes rounds of w until cfg.duration is used up, then checks the
// outputs and assembles the metrics.
func run(ctx context.Context, w workload, cfg config) (result, error) {
	res := result{Metrics: map[string]metric{}}
	var untraced, traced []roundResult
	var layers []map[string]float64
	start := time.Now()
	for r := 0; ; r++ {
		var p *probe
		if cfg.traced && r%2 == 1 {
			p = newProbe()
		}
		cpu0 := processCPU()
		rr, err := w.round(ctx, r, p)
		rr.cpu = processCPU() - cpu0
		if err != nil {
			return res, fmt.Errorf("%s round %d: %w", w.name(), r, err)
		}
		if p != nil {
			traced = append(traced, rr)
			layers = append(layers, p.metrics())
		} else {
			untraced = append(untraced, rr)
		}
		elapsed := time.Since(start)
		if r+1 >= minRounds && elapsed+rr.wall+rr.setup > cfg.duration {
			break
		}
	}

	all := append(append([]roundResult(nil), untraced...), traced...)
	for _, rr := range all {
		res.Attempted += len(rr.latencies)
		res.Failed += len(rr.latencies) - rr.solved
	}
	if err := w.check(ctx, cfg); err != nil {
		return res, fmt.Errorf("%s check: %w", w.name(), err)
	}
	res.Correct = true

	tailQ := tailQuantile(minRounds * w.opsPerRound())
	if cfg.traced {
		for _, name := range perLayerNames() {
			res.Metrics[name.name] = metric{Value: medianOf(layers, name.name), Unit: name.unit}
		}
		overhead := medianWall(traced).Seconds() / medianWall(untraced).Seconds()
		res.Metrics["trace.overhead_ratio"] = metric{Value: overhead, Unit: "ratio"}
	} else {
		var lat []time.Duration
		var setups, walls, solved []float64
		for _, rr := range untraced {
			lat = append(lat, rr.latencies...)
			setups = append(setups, rr.setup.Seconds())
			walls = append(walls, rr.wall.Seconds())
			solved = append(solved, float64(rr.solved))
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		res.Metrics["setup_s"] = metric{Value: median(setups), Unit: "s"}
		res.Metrics["wall_s"] = metric{Value: median(walls), Unit: "s"}
		res.Metrics["latency_p50_s"] = metric{Value: quantile(lat, 0.5).Seconds(), Unit: "s"}
		res.Metrics["latency_tail_s"] = metric{Value: quantile(lat, tailQ).Seconds(), Unit: "s"}
		res.Metrics["solved"] = metric{Value: median(solved), Unit: "count"}
		res.Metrics["peak_rss_mb"] = metric{Value: peakRSSMB(), Unit: "MB"}
	}
	fmt.Fprintf(cfg.log, "perfbench: workload=%s seed=%d rounds=%d (%d traced) ops/round=%d tail=p%.0f over %d samples; solved %d of %d attempted\n",
		w.name(), cfg.seed, len(all), len(traced), w.opsPerRound(), tailQ*100,
		len(untraced)*w.opsPerRound(), res.Attempted-res.Failed, res.Attempted)
	for i, rr := range all {
		fmt.Fprintf(cfg.log, "perfbench: round %d traced=%v setup %.6fs wall %.4fs cpu %.4fs solved %d/%d\n",
			i, i >= len(untraced), rr.setup.Seconds(), rr.wall.Seconds(), rr.cpu.Seconds(), rr.solved, len(rr.latencies))
	}
	return res, nil
}

func medianWall(rs []roundResult) time.Duration {
	v := make([]float64, len(rs))
	for i, r := range rs {
		v[i] = float64(r.wall)
	}
	return time.Duration(median(v))
}
