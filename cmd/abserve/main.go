// Command abserve runs the scenario service: the sweep engine behind
// abscale/abbench offered as a long-running HTTP server.
//
// Usage:
//
//	abserve [-addr :8080] [-workers N] [-cachesize N] [-cachedir DIR]
//	        [-relci F] [-minreps N] [-maxreps N] [-maxnodes N]
//	        [-maxiters N] [-budget D]
//
// Clients POST a scenario spec to /run:
//
//	curl -s localhost:8080/run -d '{"nodes":1024,"mode":"ab","topo":"fattree:16"}'
//
// and receive a JSON result whose every metric carries mean, std and a
// 95% confidence half-width over adaptively repeated simulations;
// repetitions continue until the primary metric's relative CI95
// half-width drops below -relci (default 5%) or the repetition budget
// is exhausted. Results are content-addressed on the normalized spec:
// equivalent spellings ("fattree:16:o1" vs "fattree:16", "1000us" vs
// "1ms") collapse to one cache key, repeat requests are served from an
// in-memory LRU (persisted under -cachedir when set), and identical
// concurrent requests share a single simulation. The X-Cache response
// header reports miss, hit or dedup.
//
// -workers bounds the repetitions simulated at once. A slot runs one
// repetition: each scenario holds one slot and borrows idle ones for
// its first -minreps repetitions, so a queued request waits for at most
// one borrowed repetition.
//
// GET /healthz is the liveness probe; GET /metrics reports request,
// repetition, cache, single-flight, cluster-pool and run-latency
// counters as JSON.
//
// -budget bounds the wall-clock spent repeating one scenario; leaving
// it 0 (the default) keeps responses byte-deterministic even when they
// stop unconverged.
//
// SIGINT/SIGTERM shut the server down gracefully: in-flight requests
// complete, then the shared cluster pool is drained.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"abred/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "max repetitions simulated at once; a scenario holds one slot and borrows idle ones (0 = GOMAXPROCS)")
	cacheSize := flag.Int("cachesize", 0, "in-memory result-cache capacity (0 = 4096)")
	cacheDir := flag.String("cachedir", "", "on-disk result store directory (empty = memory only)")
	relCI := flag.Float64("relci", 0, "default relative CI95 convergence target (0 = 0.05)")
	minReps := flag.Int("minreps", 0, "default minimum repetitions (0 = 3)")
	maxReps := flag.Int("maxreps", 0, "repetition ceiling and default (0 = 20)")
	maxNodes := flag.Int("maxnodes", 0, "largest accepted cluster (0 = 1<<20)")
	maxIters := flag.Int("maxiters", 0, "per-repetition iteration ceiling (0 = 1000)")
	budget := flag.Duration("budget", 0, "wall budget per scenario (0 = none, keeps byte-determinism)")
	flag.Parse()

	srv, err := serve.New(serve.Options{
		Workers:   *workers,
		CacheSize: *cacheSize,
		CacheDir:  *cacheDir,
		Limits: serve.Limits{
			MaxNodes:   *maxNodes,
			MaxReps:    *maxReps,
			MinReps:    *minReps,
			RelCI:      *relCI,
			MaxIters:   *maxIters,
			TimeBudget: *budget,
		},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "abserve:", err)
		os.Exit(1)
	}

	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "abserve: listening on %s\n", *addr)

	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "abserve:", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	// Graceful drain: stop accepting, let in-flight scenarios finish,
	// then release the warmed cluster pool.
	fmt.Fprintln(os.Stderr, "abserve: shutting down")
	sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(os.Stderr, "abserve: shutdown:", err)
	}
	srv.Close()
}
