// Command wwt-serve is the serving daemon: it opens an index directory
// (from wwt-index) live and answers column-keyword queries over HTTP on
// top of the batched engine, with per-query deadlines, admission control,
// live ingest and graceful shutdown.
//
//	wwt-serve -idx ./idx -addr :8080
//	curl -s localhost:8080/v1/answer -d '{"columns": ["country", "currency"]}'
//	curl -s localhost:8080/v1/answer -d '{"queries": [{"columns": ["country", "currency"]}], "timeout_ms": 500}'
//	curl -s localhost:8080/healthz
//	curl -s localhost:8080/metrics
//
// On SIGINT/SIGTERM the daemon stops accepting connections, drains
// in-flight batches (bounded by -drain), and exits 0.
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

	"wwt"
	"wwt/internal/serve"
)

func main() {
	idxDir := flag.String("idx", "idx", "index directory (from wwt-index)")
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "engine workers per batch (0 = GOMAXPROCS)")
	maxInFlight := flag.Int("max-inflight", 0, "concurrent worker slots across requests (0 = GOMAXPROCS)")
	queueDepth := flag.Int("queue", 0, "worker slots' worth of requests that may wait before 429 (0 = 4x max-inflight, negative = no queue)")
	timeout := flag.Duration("timeout", 10*time.Second, "default per-query deadline")
	maxTimeout := flag.Duration("max-timeout", time.Minute, "ceiling on client-requested timeout_ms")
	maxBatch := flag.Int("max-batch", 256, "members per batch request")
	drain := flag.Duration("drain", 30*time.Second, "graceful-shutdown drain budget")
	planCoeffs := flag.String("plan-coeffs", "", "retired: only the empty value is accepted")
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: wwt-serve -idx DIR [-addr :8080] [flags]")
		os.Exit(2)
	}
	if err := checkRetiredPlanCoeffs(*planCoeffs); err != nil {
		fatal(err)
	}

	eng, err := wwt.OpenLive(*idxDir, nil)
	if err != nil {
		fatal(err)
	}
	defer eng.Close()

	srv := serve.New(eng, serve.Config{
		Workers:        *workers,
		MaxInFlight:    *maxInFlight,
		QueueDepth:     *queueDepth,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
		MaxBatchSize:   *maxBatch,
	})
	// Header/read/idle timeouts bound the layer below admission control:
	// without them a slow-header (slowloris) client pins a goroutine and
	// fd per connection without ever reaching the in-flight semaphore. No
	// WriteTimeout — response time is governed by the per-query deadlines.
	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	errc := make(chan error, 1)
	go func() {
		fmt.Printf("wwt-serve: %s, listening on %s\n", describe(eng.Info()), *addr)
		errc <- hs.ListenAndServe()
	}()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errc:
		fatal(err)
	case sig := <-sigc:
		fmt.Printf("wwt-serve: %v, draining in-flight batches\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			fatal(fmt.Errorf("drain: %w", err))
		}
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal(err)
		}
		fmt.Println("wwt-serve: drained, bye")
	}
}

// checkRetiredPlanCoeffs enforces the retired -plan-coeffs flag, which is
// registered only because bench/daemon.go passes -plan-coeffs= (until
// ROADMAP item 10). The empty value does nothing; a path is refused
// rather than silently ignored, since the daemon reads and writes no
// coefficient file.
func checkRetiredPlanCoeffs(v string) error {
	if v != "" {
		return errors.New("-plan-coeffs is retired: the cost model was removed")
	}
	return nil
}

// describe renders the startup line's account of what is being served.
func describe(info wwt.LiveInfo) string {
	form := "flat index"
	if info.Mmapped {
		form = "flat mmap index"
	}
	return fmt.Sprintf("%d tables (%s, %d shard(s), live generation %d, %d segment(s))",
		info.Docs, form, info.Shards, info.Generation, info.Segments)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "wwt-serve:", err)
	os.Exit(1)
}
