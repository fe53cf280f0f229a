// Package serve is the HTTP serving layer over the batched query engine:
// the daemon surface (cmd/wwt-serve) that turns Engine.AnswerBatchCtx
// into a latency-budgeted, load-shedding network service.
//
// # Endpoints
//
//   - POST /v1/answer — answer one query ({"columns": [...]}) or a batch
//     ({"queries": [{"columns": [...]}, ...]}), with an optional
//     "timeout_ms" per-query deadline. A single query returns one result
//     object; a batch returns index-aligned per-member results where a
//     failed member carries its error string in its own slot and the
//     rest of the batch is unaffected.
//   - POST /v1/ingest — add tables (an HTML page through the extractor,
//     or CSV verbatim) to the index as a new segment and generation. The
//     Backend's IngestTables decides: an engine opened from an index
//     directory ingests, one built in memory refuses with its own error.
//     A table ID the corpus already holds is a 409 (wwt.ErrTableExists);
//     an ID repeated inside one request is a 400.
//
// Both POST bodies decode strictly: an unknown field or trailing data is
// a 400 naming it, and a body over the endpoint's limit (1 MiB for
// answers, 8 MiB for ingests) is a 413.
//   - GET /healthz — liveness: status, uptime, in-flight occupancy.
//   - GET /metrics — Prometheus-style text: request/query counters, a
//     live QPS window, cumulative per-stage latency, worker occupancy,
//     hit/miss counters for the engine's one cross-query cache (table
//     views), the sizes of the view cache and its interner, the probe
//     block counters, the estimated queue drain behind Retry-After, and
//     the wwt_index_* / wwt_ingest_* gauges from the Backend's Info.
//
// # Deadlines
//
// Every member query runs under a context deadline: the request's
// timeout_ms when given (clamped to Config.MaxTimeout), otherwise
// Config.DefaultTimeout. The engine checks cancellation between pipeline
// stages, so a query past its deadline aborts with
// context.DeadlineExceeded in its own slot and abort latency is bounded
// by the longest single stage. Client disconnects cancel the request
// context and propagate the same way.
//
// # Admission control
//
// Admission is a bounded in-flight semaphore measured in engine worker
// slots: a request occupies min(members, workers) slots while it runs.
// A slot is one executing goroutine, since the engine runs each query —
// model build and inference included — on the worker that took it, so
// the cap bounds the CPU work in flight. When the server is saturated, up
// to Config.QueueDepth slots' worth of requests wait for capacity; beyond
// that the server sheds load immediately with 429 and a Retry-After
// header instead of queuing unboundedly. Shed requests never reach the
// engine. Retry-After is the estimated queue drain: the occupancy divided
// into capacity-sized waves, each lasting the decayed average time recent
// batches held their slots, clamped to [1s, Config.MaxTimeout]. /metrics
// exports the same estimate as wwt_plan_queue_drain_seconds.
//
// # Ownership and concurrency
//
// A Server is immutable after New and safe for concurrent requests; all
// mutable state (admission counters, metrics) is internally synchronized.
// Every member's pooled arena is back in the engine's pool before
// AnswerBatchPlan returns, so serving traffic never pins arenas between
// requests. The Backend must be safe for concurrent calls
// (wwt.Engine is). Graceful shutdown is the caller's
// http.Server.Shutdown: the server holds no background goroutines, so
// draining in-flight requests drains everything.
package serve
