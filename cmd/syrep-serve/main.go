// Command syrep-serve runs the resilient synthesis/repair service: a
// bounded-queue worker pool around the anytime supervisor, with retrying,
// circuit-broken degradation, and graceful drain on SIGTERM/SIGINT.
//
// Usage:
//
//	syrep-serve [-addr host:port] [-workers N] [-queue N] [-retries N]
//	            [-breaker-threshold N] [-breaker-cooldown D]
//	            [-drain-timeout D] [-mem-limit MB] [-metrics-out file]
//	            [-cache-entries N] [-cache-ttl D] [-cache-persist file]
//	            [-verify-backend auto|brute|poly]
//
// Endpoints:
//
//	POST /v1/synthesize  {"topology":"abilene","dest":"n0","k":2}
//	POST /v1/repair      {"links":[["a","b"],...],"routing":{...},"k":2}
//	                     (omit "routing" for warm-start dynamic repair)
//	GET  /v1/topologies  embedded topology catalogue
//	GET  /v1/cache       synthesis cache stats (hits, misses, warm starts)
//	GET  /healthz        liveness
//	GET  /readyz         readiness (breaker closed, queue below high water)
//	GET  /metrics        Prometheus exposition
//
// On shutdown the server stops admitting, drains in-flight work under
// -drain-timeout, and writes the final metrics snapshot to -metrics-out.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"syrep/internal/cache"
	"syrep/internal/network"
	"syrep/internal/obs"
	"syrep/internal/retry"
	"syrep/internal/server"
	"syrep/internal/topozoo"
	"syrep/internal/verify/poly"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "syrep-serve:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, w io.Writer) error {
	fs := flag.NewFlagSet("syrep-serve", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:7077", "listen address")
	workers := fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	queue := fs.Int("queue", 0, "admission queue depth (0 = 4x workers)")
	retries := fs.Int("retries", 3, "max retries for transient failures (negative disables)")
	breakerThreshold := fs.Int("breaker-threshold", 5,
		"consecutive transient failures that trip the circuit breaker")
	breakerCooldown := fs.Duration("breaker-cooldown", 5*time.Second,
		"how long the breaker stays open before half-open probes")
	drainTimeout := fs.Duration("drain-timeout", 10*time.Second,
		"how long shutdown waits for in-flight work before force-cancelling")
	memLimit := fs.Int("mem-limit", 0,
		"heap size in MiB above which the breaker trips into degraded mode (0 disables)")
	cacheEntries := fs.Int("cache-entries", 256,
		"synthesis cache capacity in entries (0 disables the cache and the warm-start repair path)")
	cacheTTL := fs.Duration("cache-ttl", 15*time.Minute,
		"synthesis cache entry time-to-live")
	cachePersist := fs.String("cache-persist", "",
		"warm the synthesis cache from this file at startup and save it back on shutdown (requires -cache-entries > 0)")
	metricsOut := fs.String("metrics-out", "",
		"write the final metrics snapshot here on shutdown (JSON when it ends in .json, Prometheus text otherwise)")
	verifyBackend := fs.String("verify-backend", "auto",
		"verification backend: auto (poly fast path with brute-force oracle fallback), brute, or poly")
	if err := fs.Parse(args); err != nil {
		return err
	}
	backend, err := poly.Select(*verifyBackend)
	if err != nil {
		return err
	}

	ob := obs.New(nil)
	cfg := server.Config{
		Workers:       *workers,
		QueueDepth:    *queue,
		RetryMax:      *retries,
		Breaker:       retry.BreakerConfig{Threshold: *breakerThreshold, Cooldown: *breakerCooldown},
		DrainTimeout:  *drainTimeout,
		Obs:           ob,
		VerifyBackend: backend,
	}
	if *retries == 0 {
		cfg.RetryMax = -1
	}
	if *cacheEntries > 0 {
		cfg.Cache = cache.New(cache.Config{
			MaxEntries: *cacheEntries,
			TTL:        *cacheTTL,
			Obs:        ob,
		})
	}
	if *cachePersist != "" {
		if cfg.Cache == nil {
			return errors.New("-cache-persist requires -cache-entries > 0")
		}
		if err := loadCache(w, *cachePersist, cfg.Cache); err != nil {
			return err
		}
	}
	if *memLimit > 0 {
		limit := uint64(*memLimit) << 20
		cfg.MemoryPressure = func() bool {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return ms.HeapAlloc > limit
		}
	}
	if *metricsOut != "" {
		cfg.OnFlush = func(snap obs.Snapshot) {
			f, err := os.Create(*metricsOut)
			if err != nil {
				fmt.Fprintln(w, "metrics flush:", err)
				return
			}
			if err := snap.WriteMetrics(f, *metricsOut); err != nil {
				fmt.Fprintln(w, "metrics flush:", err)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintln(w, "metrics flush:", err)
				return
			}
			fmt.Fprintf(w, "metrics written to %s\n", *metricsOut)
		}
	}

	s := server.New(cfg)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "syrep-serve listening on %s (%d workers, queue %d)\n",
		ln.Addr(), cfgWorkers(cfg), cfgQueue(cfg))

	hs := &http.Server{Handler: s.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		// The listener died on its own; still drain the pool.
		derr := s.Shutdown(context.Background())
		perr := saveCache(w, *cachePersist, cfg.Cache)
		return errors.Join(err, derr, perr)
	case <-ctx.Done():
	}

	fmt.Fprintln(w, "shutting down: draining in-flight work")
	// The HTTP drain and the pool drain share one deadline with headroom for
	// the force-cancel path to unwind.
	sctx, cancel := context.WithTimeout(context.Background(), *drainTimeout+5*time.Second)
	defer cancel()
	herr := hs.Shutdown(sctx)
	if errors.Is(herr, context.DeadlineExceeded) {
		herr = nil // stragglers were cut off; the pool drain below reports real trouble
	}
	derr := s.Shutdown(sctx)
	if derr == nil {
		fmt.Fprintln(w, "drained")
	}
	perr := saveCache(w, *cachePersist, cfg.Cache)
	return errors.Join(herr, derr, perr)
}

// loadCache warms c from a prior Save snapshot. Entries are resolved against
// the embedded topology suite; a missing file is a clean first boot, not an
// error.
func loadCache(w io.Writer, path string, c *cache.Cache) error {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	defer f.Close()
	known := make(map[network.Fingerprint]*network.Network)
	for _, inst := range topozoo.Embedded() {
		known[inst.Net.Fingerprint()] = inst.Net
	}
	n, err := c.Load(f, func(fp network.Fingerprint) *network.Network { return known[fp] })
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "cache: restored %d entries from %s\n", n, path)
	return nil
}

// saveCache writes the cache snapshot atomically (tmp + rename) so a crash
// mid-save never clobbers the previous snapshot.
func saveCache(w io.Writer, path string, c *cache.Cache) error {
	if path == "" || c == nil {
		return nil
	}
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	n, err := c.Save(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("cache persist: %w", err)
	}
	fmt.Fprintf(w, "cache: saved %d entries to %s\n", n, path)
	return nil
}

// cfgWorkers and cfgQueue mirror Config.withDefaults for the startup banner
// (the resolved values live inside the server).
func cfgWorkers(cfg server.Config) int {
	if cfg.Workers > 0 {
		return cfg.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func cfgQueue(cfg server.Config) int {
	if cfg.QueueDepth > 0 {
		return cfg.QueueDepth
	}
	return 4 * cfgWorkers(cfg)
}
