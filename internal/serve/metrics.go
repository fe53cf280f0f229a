package serve

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"wwt"
)

// qpsWindow is the span of the live throughput window reported as
// wwt_qps_30s: one bucket per second, summed over the last 30 seconds.
const qpsWindow = 30

// metrics accumulates the serving counters exported by /metrics. One
// mutex guards everything; the serving path takes it once per batch, so
// contention is bounded by request rate, not query rate.
type metrics struct {
	mu    sync.Mutex
	start time.Time

	requests int64 // POST /v1/answer requests accepted for execution
	queries  int64 // member queries received by the engine
	answered int64 // member queries that produced a result
	failed   int64 // member queries that returned an error
	shed     int64 // member queries rejected with 429

	stage   map[string]time.Duration // cumulative per-stage time
	wall    time.Duration            // cumulative batch wall time
	buckets [qpsWindow]qpsBucket     // answered-query completions per second

	// hold is the decayed average wall time, in nanoseconds, a request
	// holds its worker slots: the wave length behind the 429 Retry-After
	// drain estimate. held reports whether any batch has been folded in.
	hold float64
	held bool
}

// holdAlpha is the weight each new batch carries in the hold average, so
// the average remembers about the last five batches.
const holdAlpha = 0.2

type qpsBucket struct {
	sec int64 // unix second this bucket currently counts
	n   int64
}

func newMetrics(now time.Time) *metrics {
	return &metrics{start: now, stage: make(map[string]time.Duration)}
}

// holdAvg returns the decayed average slot-hold time (0 before the first
// completed batch).
func (m *metrics) holdAvg() time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	return time.Duration(m.hold)
}

// recordBatch folds one executed batch into the counters.
func (m *metrics) recordBatch(bt wwt.BatchTimings, now time.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.requests++
	m.queries += int64(bt.Queries)
	m.answered += int64(bt.Succeeded())
	m.failed += int64(bt.Failed)
	for _, s := range bt.Stages.Stages() {
		m.stage[s.Name] += s.D
	}
	m.wall += bt.Wall
	// The first batch seeds the hold average directly, with no bias
	// toward zero.
	if m.held {
		m.hold += holdAlpha * (float64(bt.Wall) - m.hold)
	} else {
		m.hold, m.held = float64(bt.Wall), true
	}
	sec := now.Unix()
	b := &m.buckets[sec%qpsWindow]
	if b.sec != sec {
		b.sec, b.n = sec, 0
	}
	b.n += int64(bt.Succeeded())
}

// recordShed counts n member queries turned away with 429.
func (m *metrics) recordShed(n int) {
	m.mu.Lock()
	m.shed += int64(n)
	m.mu.Unlock()
}

// qps returns the answered-queries-per-second rate over the trailing
// window (or over the uptime, when shorter). Callers hold m.mu.
func (m *metrics) qpsLocked(now time.Time) float64 {
	sec := now.Unix()
	var n int64
	for i := range m.buckets {
		if b := m.buckets[i]; b.sec > sec-qpsWindow {
			n += b.n
		}
	}
	span := now.Sub(m.start).Seconds()
	if span > qpsWindow {
		span = qpsWindow
	}
	if span < 1 {
		span = 1
	}
	return float64(n) / span
}

// render writes the Prometheus text exposition. Stage lines follow
// pipeline order; cache lines are sorted by name.
func (m *metrics) render(now time.Time, inFlight, queued, capacity int, cache wwt.EngineCacheStats, ps wwt.PlanStats, drain time.Duration) string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var b strings.Builder
	put := func(name string, v any) { fmt.Fprintf(&b, "%s %v\n", name, v) }
	put("wwt_uptime_seconds", fmt.Sprintf("%.3f", now.Sub(m.start).Seconds()))
	put("wwt_http_requests_total", m.requests)
	put("wwt_queries_total", m.queries)
	put("wwt_queries_answered_total", m.answered)
	put("wwt_queries_failed_total", m.failed)
	put("wwt_queries_shed_total", m.shed)
	put(fmt.Sprintf("wwt_qps_%ds", qpsWindow), fmt.Sprintf("%.3f", m.qpsLocked(now)))
	put("wwt_inflight_workers", inFlight)
	put("wwt_inflight_capacity", capacity)
	put("wwt_queued_workers", queued)
	put("wwt_batch_wall_seconds_total", fmt.Sprintf("%.6f", m.wall.Seconds()))
	// The current estimated queue-drain time (the 429 Retry-After signal).
	put("wwt_plan_queue_drain_seconds", fmt.Sprintf("%.3f", drain.Seconds()))
	// Probe-pruning counters: blocks the block-max skip pruned vs
	// considered.
	put("wwt_probe_blocks_skipped_total", ps.ProbeBlocksSkipped)
	put("wwt_probe_blocks_total", ps.ProbeBlocksTotal)
	// Per-stage cumulative latency, in the pipeline's own stage order.
	for _, s := range (wwt.Timings{}).Stages() {
		fmt.Fprintf(&b, "wwt_stage_seconds_total{stage=%q} %.6f\n", s.Name, m.stage[s.Name].Seconds())
	}
	put(`wwt_cache_hits_total{cache="views"}`, cache.Views.Hits)
	put(`wwt_cache_misses_total{cache="views"}`, cache.Views.Misses)
	put(`wwt_cache_hit_rate{cache="views"}`, fmt.Sprintf("%.4f", cache.Views.HitRate()))
	// Sizes of the engine-lifetime view cache and its symbol table. Nothing
	// evicts either, so both gauges only grow.
	put("wwt_view_cache_entries", cache.ViewEntries)
	put("wwt_interner_strings", cache.InternedStrings)
	return b.String()
}
