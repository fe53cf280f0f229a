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
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"wwt"
	"wwt/internal/inference"
	"wwt/internal/serve"
)

func main() {
	idxDir := flag.String("idx", "idx", "index directory (from wwt-index)")
	addr := flag.String("addr", ":8080", "listen address")
	alg := flag.String("alg", "table-centric", "inference: none|table-centric|alpha|bp|trws")
	workers := flag.Int("workers", 0, "engine workers per batch (0 = GOMAXPROCS)")
	maxInFlight := flag.Int("max-inflight", 0, "concurrent worker slots across requests (0 = GOMAXPROCS)")
	queueDepth := flag.Int("queue", 0, "worker slots' worth of requests that may wait before 429 (0 = 4x max-inflight, negative = no queue)")
	timeout := flag.Duration("timeout", 10*time.Second, "default per-query deadline")
	maxTimeout := flag.Duration("max-timeout", time.Minute, "ceiling on client-requested timeout_ms")
	maxBatch := flag.Int("max-batch", 256, "members per batch request")
	drain := flag.Duration("drain", 30*time.Second, "graceful-shutdown drain budget")
	planCoeffs := flag.String("plan-coeffs", "", "planner: calibrated-coefficient sidecar path, loaded at startup and written on drain (default <idx>/plan-coeffs.json; empty string after an explicit -plan-coeffs= disables)")
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: wwt-serve -idx DIR [-addr :8080] [flags]")
		os.Exit(2)
	}

	opts := wwt.DefaultOptions()
	switch strings.ToLower(*alg) {
	case "none":
		opts.Algorithm = inference.Independent
	case "alpha", "alpha-exp":
		opts.Algorithm = inference.AlphaExpansion
	case "bp":
		opts.Algorithm = inference.BP
	case "trws":
		opts.Algorithm = inference.TRWS
	case "table-centric":
		opts.Algorithm = inference.TableCentric
	default:
		fatal(fmt.Errorf("unknown algorithm %q", *alg))
	}

	coeffsPath := *planCoeffs
	coeffsSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "plan-coeffs" {
			coeffsSet = true
		}
	})
	if !coeffsSet {
		coeffsPath = filepath.Join(*idxDir, "plan-coeffs.json")
	}

	eng, err := wwt.OpenLive(*idxDir, &opts)
	if err != nil {
		fatal(err)
	}
	defer eng.Close()

	// Warm the cost model from the last run's calibration, when a sidecar
	// is present; a missing file just starts cold. A corrupt or
	// version-mismatched sidecar is fatal (delete it to recalibrate) —
	// silently serving with wrong coefficients would be worse.
	if coeffsPath != "" {
		if loaded, err := eng.Planner().LoadFile(coeffsPath); err != nil {
			fatal(err)
		} else if loaded {
			fmt.Printf("wwt-serve: planner coefficients loaded from %s\n", coeffsPath)
		}
	}

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
		// Persist what this run learned so the next start resumes warm.
		// Best-effort: a full disk must not turn a clean drain into a
		// non-zero exit.
		if coeffsPath != "" {
			if err := eng.Planner().SaveFile(coeffsPath); err != nil {
				fmt.Fprintln(os.Stderr, "wwt-serve:", err)
			} else {
				fmt.Printf("wwt-serve: planner coefficients saved to %s\n", coeffsPath)
			}
		}
		fmt.Println("wwt-serve: drained, bye")
	}
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
