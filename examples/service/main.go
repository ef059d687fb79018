// Service demonstrates the resilient synthesis server in-process: the same
// engine behind cmd/syrep-serve, driven through its Go API. The demo walks
// the full robustness trichotomy:
//
//  1. a transient node-limit fault is retried with backoff and served;
//  2. memory pressure trips the circuit breaker, so the next request is
//     served degraded (heuristic-only, no BDD repair) instead of failing;
//  3. the pressure clears, a half-open probe succeeds, and service recovers;
//  4. graceful shutdown drains in-flight work and flushes the metrics.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"sync/atomic"
	"time"

	"syrep/internal/obs"
	"syrep/internal/papernet"
	"syrep/internal/resilience"
	"syrep/internal/resilience/faultinject"
	"syrep/internal/retry"
	"syrep/internal/server"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// One scripted fault: the first heuristic stage entered anywhere fails
	// like a BDD memout. The server classifies it transient and retries.
	injector := faultinject.New(faultinject.Fault{
		Stage: resilience.StageHeuristic,
		Kind:  faultinject.NodeLimit,
		Times: 1,
	})

	var pressured atomic.Bool
	ob := obs.New(nil)
	s := server.New(server.Config{
		Workers:        2,
		RetryBase:      5 * time.Millisecond,
		Breaker:        retry.BreakerConfig{Threshold: 2, Cooldown: 50 * time.Millisecond, Probes: 1},
		MemoryPressure: pressured.Load,
		Hook:           injector,
		Obs:            ob,
		DrainTimeout:   2 * time.Second,
		OnFlush: func(snap obs.Snapshot) {
			fmt.Println("-- final metrics snapshot --")
			_ = snap.WritePrometheus(os.Stdout)
		},
	})

	n := papernet.Figure1()
	req := func() *server.Request {
		return &server.Request{
			Kind:     server.KindSynthesize,
			Net:      n,
			Dest:     papernet.Figure1Dest(n),
			K:        2,
			Strategy: resilience.Combined,
		}
	}
	ctx := context.Background()

	// 1. Transient fault: retried behind the scenes, the caller just sees a
	//    resilient table (and the retry count).
	resp, err := s.Do(ctx, req())
	if err != nil {
		return err
	}
	fmt.Printf("1. transient memout: resilient=%v after %d retr%s\n",
		resp.Resilient, resp.Retries, plural(resp.Retries))

	// 2. Memory pressure: the breaker trips and requests ride the degraded
	//    heuristic-only path — best-effort tables, honestly flagged.
	pressured.Store(true)
	resp, err = s.Do(ctx, req())
	if err != nil {
		return err
	}
	fmt.Printf("2. under pressure:   degraded=%v residual=%d breaker=%s\n",
		resp.Degraded, resp.Residual, s.Breaker().State())

	// 3. Pressure clears; after the cooldown a half-open probe runs the full
	//    pipeline and recovery closes the breaker.
	pressured.Store(false)
	time.Sleep(60 * time.Millisecond)
	resp, err = s.Do(ctx, req())
	if err != nil {
		return err
	}
	fmt.Printf("3. recovered:        resilient=%v degraded=%v breaker=%s\n",
		resp.Resilient, resp.Degraded, s.Breaker().State())

	// 4. Graceful drain: admission stops, in-flight work finishes, metrics
	//    flush exactly once.
	if err := s.Shutdown(ctx); err != nil {
		return err
	}
	if _, err := s.Submit(req()); err != nil {
		fmt.Printf("4. after shutdown:   submit rejected: %v\n", err)
	}
	return nil
}

func plural(n int) string {
	if n == 1 {
		return "y"
	}
	return "ies"
}
