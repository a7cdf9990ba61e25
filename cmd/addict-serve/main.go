package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"addict"
	"addict/cmd/internal/sigctx"
	"addict/internal/wire"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8414", "listen address")
	seed := flag.Int64("seed", 42, "session seed driving all workload randomness")
	scale := flag.Float64("scale", 0.5, "database scale factor")
	traces := flag.Int("traces", 250, "profiling and evaluation trace-window size")
	workers := flag.Int("workers", 0, "generation/replay parallelism (<1 = all CPUs)")
	maxRuns := flag.Int("max-runs", 4, "max concurrently admitted computations (<=0 = unlimited); excess requests get 429 + Retry-After")
	retryAfter := flag.Duration("retry-after", 2*time.Second, "Retry-After hint sent with 429 replies")
	cacheBudget := flag.Int64("cache-budget", 0, "session artifact cache budget in approximate bytes (<=0 = unbounded)")
	respCache := flag.Int64("response-cache", 64<<20, "response cache budget in bytes (<=0 = unbounded)")
	storeDir := flag.String("store", "", "on-disk artifact store directory (empty = memory-only); restarts warm-start from it")
	storeBudget := flag.Int64("store-budget", 0, "on-disk store size budget in bytes (<=0 = unbounded)")
	flag.Parse()

	opts := []addict.EngineOption{
		addict.WithSeed(*seed),
		addict.WithScale(*scale),
		addict.WithTraceWindows(*traces, *traces, 0),
		addict.WithWorkers(*workers),
		addict.WithCacheBudget(*cacheBudget),
	}
	if *storeDir != "" {
		opts = append(opts, addict.WithStore(*storeDir, *storeBudget))
	}
	eng := addict.NewEngine(opts...)
	if err := eng.StoreErr(); err != nil {
		// A requested store that cannot open is a deployment error, not a
		// silent downgrade to memory-only.
		fmt.Fprintln(os.Stderr, "addict-serve:", err)
		os.Exit(1)
	}
	s := newServer(eng, *maxRuns, *retryAfter, *respCache)

	ctx, stop := sigctx.Context(1500 * time.Millisecond)
	defer stop()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "addict-serve:", err)
		os.Exit(1)
	}
	fmt.Printf("addict-serve: listening on http://%s (seed %d, scale %g, %d traces)\n",
		ln.Addr(), *seed, *scale, *traces)

	// Request contexts descend from the signal context: SIGINT cancels
	// in-flight runs, which unwind between work items.
	srv := wire.NewServer(ctx, s.handler())
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()

	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "addict-serve:", err)
			os.Exit(1)
		}
	case <-ctx.Done():
		// Drain within the sigctx grace window; the watchdog hard-exits
		// if a handler wedges past it.
		sctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = srv.Shutdown(sctx)
		sigctx.Exit("addict-serve")
	}
}
