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
// non-nil.
type BatchResult struct {
	Results []*Result
	Errs    []error
	Timings BatchTimings
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
// submission order. Each worker draws one arena from the engine pool,
// hands it to fn query by query and puts it back when the work runs out.
// A panicking fn is recovered into onPanic and its arena is discarded for
// a fresh one — a half-written arena never re-enters the pool. Returns
// the worker count actually used.
func (e *Engine) forEachQuery(n, workers int, fn func(i int, s *QueryScratch), onPanic func(i int, v any)) int {
	workers = batchWorkers(workers, n)
	if workers == 0 {
		return 0
	}
	runOne := func(i int, s *QueryScratch) (poisoned bool) {
		defer func() {
			if r := recover(); r != nil {
				onPanic(i, r)
				poisoned = true
			}
		}()
		fn(i, s)
		return false
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
				if runOne(i, s) {
					s = &QueryScratch{}
				}
			}
			e.putScratch(s)
		}()
	}
	wg.Wait()
	return workers
}

// AnswerBatchCtx answers many queries through the full pipeline on a
// bounded worker pool (workers <= 0 means GOMAXPROCS). Every worker keeps
// one pooled arena for all the member queries it serves and puts it back
// when the batch runs out of members, and all members share the engine's
// warm cross-query caches. Each member's output is bit-identical to a solo
// Answer of the same query on the same engine.
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
// An aborted member leaves its worker's arena reusable like any other
// failed member (stages are never interrupted mid-flight, so the arena is
// not poisoned), and the worker keeps it for its next member. Cancellation
// latency is bounded by the longest single stage.
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
	br.Timings.Workers = e.forEachQuery(len(queries), workers, func(i int, s *QueryScratch) {
		// The deadline context lives in its own frame so the deferred
		// cancel releases the timer even when the member panics (the
		// recover sits in forEachQuery, above this frame).
		br.Results[i], br.Errs[i] = func() (*Result, error) {
			qctx := ctx
			if perQuery > 0 {
				var cancel context.CancelFunc
				qctx, cancel = context.WithTimeout(ctx, perQuery)
				defer cancel()
			}
			return e.answerOn(qctx, &queryState{g: g, query: queries[i]}, s)
		}()
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
