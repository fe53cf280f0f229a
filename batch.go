package wwt

// Batched multi-query execution: AnswerBatchCtx runs many queries through
// the same stage list (pipeline.go) on a bounded worker pool. Each worker
// holds exactly one pooled QueryScratch arena at a time, every worker
// shares the engine's warm cross-query cache (table views and their
// interner), and each member query's output is bit-identical to a solo
// Answer — pinned by TestAnswerBatchEquivalence. A failing (or even
// panicking) member is isolated to its own slot; the rest of the batch
// completes.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// BatchTimings aggregates one batch run. Stages sums every member query's
// per-stage wall time, so with overlapping workers the sum exceeds Wall —
// the ratio Stages.Total()/Wall is the realized parallelism.
type BatchTimings struct {
	// Stages is the per-stage time summed over all successful members.
	Stages Timings
	// Wall is the wall-clock time of the whole batch.
	Wall time.Duration
	// Workers is the number of worker goroutines the batch ran on.
	Workers int
	// Queries is the number of member queries (successful + failed).
	Queries int
	// Failed is the number of members that returned an error.
	Failed int
}

// Succeeded returns the number of members that produced a result.
func (t BatchTimings) Succeeded() int { return t.Queries - t.Failed }

// QPS returns the realized batch throughput in successfully answered
// queries per second. Failed members are excluded — a batch of
// fast-failing queries would otherwise report inflated throughput; use
// TotalQPS for the all-members rate.
func (t BatchTimings) QPS() float64 {
	if t.Wall <= 0 {
		return 0
	}
	return float64(t.Succeeded()) / t.Wall.Seconds()
}

// TotalQPS returns the batch throughput counting every member, successful
// or failed.
func (t BatchTimings) TotalQPS() float64 {
	if t.Wall <= 0 {
		return 0
	}
	return float64(t.Queries) / t.Wall.Seconds()
}

// ErrPanic marks a batch member error produced by recovering a panicking
// member (errors.Is(err, ErrPanic)). It distinguishes server-side faults
// from ordinary query errors — the serving layer maps it to 500 instead
// of 400.
var ErrPanic = errors.New("panicked")

// BatchResult holds a batch's per-query outcomes, index-aligned with the
// queries passed to AnswerBatchCtx: Results[i] is nil exactly when Errs[i] is
// non-nil. Each non-nil Result owns its pooled arena just like a solo
// Answer; release them individually as they are consumed, or call
// BatchResult.Release once for the rest.
type BatchResult struct {
	Results []*Result
	Errs    []error
	Timings BatchTimings
}

// FirstErr returns the error of the lowest-indexed failed member, or nil
// when every member succeeded.
func (b *BatchResult) FirstErr() error {
	for _, err := range b.Errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Release releases every remaining result's arena back to the engine pool
// (already-released and failed members are skipped). Like Result.Release
// it is optional and invalidates only the scratch-backed Models; answer
// rows, labelings and tables stay valid.
func (b *BatchResult) Release() {
	for _, r := range b.Results {
		if r != nil {
			r.Release()
		}
	}
}

// batchWorkers resolves a caller worker count: non-positive means
// GOMAXPROCS, and a batch never runs more workers than members.
func batchWorkers(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	return workers
}

// forEachQuery fans indices 0..n-1 out over a bounded worker pool in
// submission order. Each worker draws one arena from the engine pool and
// hands it to fn query by query; fn reports whether it retained the arena
// (gave it to a Result), in which case the worker draws a fresh one. A
// panicking fn is recovered into onPanic and its arena is discarded — a
// half-written arena never re-enters the pool. Returns the worker count
// actually used.
func (e *Engine) forEachQuery(n, workers int, fn func(i int, s *QueryScratch) (retained bool), onPanic func(i int, v any)) int {
	workers = batchWorkers(workers, n)
	if workers == 0 {
		return 0
	}
	runOne := func(i int, s *QueryScratch) (retained, poisoned bool) {
		defer func() {
			if r := recover(); r != nil {
				onPanic(i, r)
				retained, poisoned = false, true
			}
		}()
		return fn(i, s), false
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := e.getScratch()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					break
				}
				retained, poisoned := runOne(i, s)
				if poisoned {
					s = &QueryScratch{}
				} else if retained {
					s = e.getScratch()
				}
			}
			e.putScratch(s)
		}()
	}
	wg.Wait()
	return workers
}

// AnswerBatchCtx answers many queries through the full pipeline on a
// bounded worker pool (workers <= 0 means GOMAXPROCS). Every worker reuses
// one pooled arena across the member queries it serves — a member that
// produces a Result hands the arena over, exactly as a solo Answer does,
// and the worker draws the next one from the pool — and all members share
// the engine's warm cross-query caches. Each member's output is
// bit-identical to a solo Answer of the same query on the same engine.
//
// Members are isolated: one query returning an error (or panicking; the
// panic is recovered into its error slot) does not affect the others.
// BatchResult.Timings aggregates the batch; per-query splits stay on each
// Result.Timings.
//
// ctx bounds the whole batch: once it is canceled or past its deadline,
// every not-yet-finished member aborts between stages with ctx.Err() in
// its own error slot. perQuery > 0 additionally gives each member its own
// deadline of that much time, measured from when a worker picks the
// member up — a slow member times out alone with context.DeadlineExceeded
// in its slot while the rest of the batch runs to completion,
// bit-identical to solo answers. perQuery 0 sets no per-member deadline.
//
// An aborted member's arena returns to the engine pool like any other
// failed member's (stages are never interrupted mid-flight, so the arena
// is reusable, not poisoned). Cancellation latency is bounded by the
// longest single stage.
//
// The whole batch runs on the generation current at call time, pinned
// until every member finishes: concurrent ingests swap later calls to
// newer generations without disturbing this one. Results stay valid after
// that generation is closed, because answers are backed by the
// generation's heap-resident table slice, not the index mappings.
func (e *Engine) AnswerBatchCtx(ctx context.Context, queries []Query, workers int, perQuery time.Duration) *BatchResult {
	start := time.Now()
	g := e.acquire()
	defer e.release(g)
	br := &BatchResult{
		Results: make([]*Result, len(queries)),
		Errs:    make([]error, len(queries)),
	}
	br.Timings.Queries = len(queries)
	br.Timings.Workers = e.forEachQuery(len(queries), workers, func(i int, s *QueryScratch) bool {
		// The deadline context lives in its own frame so the deferred
		// cancel releases the timer even when the member panics (the
		// recover sits in forEachQuery, above this frame).
		res, err := func() (*Result, error) {
			qctx := ctx
			if perQuery > 0 {
				var cancel context.CancelFunc
				qctx, cancel = context.WithTimeout(ctx, perQuery)
				defer cancel()
			}
			return e.answerOn(qctx, g, queries[i], s)
		}()
		if err != nil {
			br.Errs[i] = err
			return false
		}
		br.Results[i] = res
		return true
	}, func(i int, v any) {
		br.Errs[i] = fmt.Errorf("wwt: batch member %d %w: %v", i, ErrPanic, v)
	})
	for i, r := range br.Results {
		if br.Errs[i] != nil {
			br.Timings.Failed++
			continue
		}
		br.Timings.Stages.Add(r.Timings)
	}
	br.Timings.Wall = time.Since(start)
	return br
}

// BatchPlan is the batch-plan argument of AnswerBatchPlan. It has no
// fields: the engine answers every batch one way. It stays so that
// serve.Backend implementations and callers written against
// AnswerBatchPlan keep compiling, as LiveEngine stays an alias of Engine.
type BatchPlan struct{}

// AnswerBatchPlan is AnswerBatchCtx; the BatchPlan argument carries
// nothing. It is the method serve.Backend names.
func (e *Engine) AnswerBatchPlan(ctx context.Context, queries []Query, workers int, perQuery time.Duration, _ BatchPlan) *BatchResult {
	return e.AnswerBatchCtx(ctx, queries, workers, perQuery)
}
