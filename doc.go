// Package wwt is the public API of this reproduction of "Answering Table
// Queries on the Web using Column Keywords" (Pimplikar & Sarawagi, VLDB
// 2012). It wires the full WWT pipeline of Fig. 2: a boosted multi-field
// index over extracted web tables, the two-stage index probe of §2.2.1,
// the graphical-model column mapper of §3 with the inference algorithms of
// §4, and the consolidator/ranker of §2.2.3.
//
// # Pipeline
//
// The query path is an explicit staged pipeline —
//
//	Probe1 → Read1 → Probe2 → Read2 → ColumnMap → Infer → Consolidate
//
// (see pipeline.go) — where every stage is a named method fed by a pooled
// per-query scratch arena (QueryScratch), so the flat buffers behind
// probing, model building, inference and consolidation are reused across
// queries instead of reallocated. Answer, AnswerCtx and AnswerBatchCtx run
// the whole list, and no entry point runs part of it: the candidates and
// the §3 column mapping a caller may want on their own are on every
// Result (Tables, UsedProbe2, Labeling), so the experiments read them
// there.
//
// Options holds the column mapper's Params and the SecondProbe switch.
// The probes' constants are fixed (§2.2.1): each probe fetches 40
// candidates, and the second samples 10 rows from each of the (at most
// two) stage-1 tables relevant with R(Q,t) at least 0.75. Consolidation
// merges first-column keys whose token sets reach a Jaccard of 0.8
// (§2.2.3).
//
// # Ownership and concurrency
//
// There is one engine type. An Engine is only ever obtained from
// NewEngine (build and freeze in memory) or OpenLive (open an index
// directory, the one way to serve one). It holds engine-lifetime state
// set once by its constructor — options, the table-view cache and its
// interner, the arena pool, the probe counters, and for OpenLive the
// directory, manifest, table-ID and merge state — plus one immutable,
// refcounted generation (a searcher and its tables by doc number: a
// probe hit's Doc indexes the table it names) behind an atomic pointer.
// Every query entry point pins one generation for its whole call, so any
// number of goroutines may call Answer, AnswerCtx and AnswerBatchCtx while
// IngestTables and background merges publish new generations. An engine
// not opened from a directory is generation 0 forever: its IngestTables
// refuses. The one cross-query cache (table views and their interner) is
// concurrency-safe and hands out shared read-only views.
//
// Exactly one query owns a scratch arena at a time, from its first stage
// to its last, and Answer puts it back into the pool before it returns;
// a panicking query's arena is dropped, never pooled. The §3 model lives
// in the arena and never leaves the query. A Result owns everything it
// holds (answer rows, labeling, tables), so the arena's next query cannot
// touch it.
//
// # Batched execution
//
// AnswerBatchCtx runs many queries through the same stage list on a
// bounded worker pool. Each worker keeps one pooled arena for all the
// members it serves, all workers share the engine's warm caches, and
// every member's output is bit-identical to a solo call. Members are
// error-isolated: one failing query fills only its own error slot.
// BatchTimings aggregates the per-stage split and wall clock; serving
// loops and the evaluation harness (internal/eval) are built on these
// entry points.
//
// # Deadlines and cancellation
//
// AnswerCtx and AnswerBatchCtx run the pipeline under a context:
// cancellation is checked between stages, an expired or canceled query
// returns ctx.Err() (in its own batch slot, leaving the other members
// untouched), and the aborted query's arena goes back to the pool clean.
// AnswerBatchCtx additionally gives every member its own deadline. The
// serving daemon (internal/serve, cmd/wwt-serve) builds its per-query
// latency budgets, admission control and /metrics on these entry points
// plus Engine.CacheStats.
//
// # Typical use
//
//	tables := extract.Page(url, html, extract.NewOptions())   // offline
//	eng, err := wwt.NewEngine(tables, nil)                    // index + tables
//	res, err := eng.Answer(wwt.Query{Columns: []string{
//	    "name of explorers", "nationality", "areas explored"}})
//	for _, row := range res.Answer.Rows { ... }
//
// See the runnable examples in example_test.go and the README for the
// architecture diagram and cache contracts.
package wwt
