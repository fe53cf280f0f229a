package main

// layers.go is the traced pass, and the only file of the benchmark that
// imports the engine: everything else drives the three built binaries
// over files and HTTP. The traced pass holds the repo to these symbols,
// and to nothing else:
//
//	wwt.OpenLive
//	wwt.LiveEngine.{AnswerBatchPlan, IngestTables, WaitMerges, CacheStats, PlanStats, Info, Close}
//	wwt.{Query, BatchPlan, BatchResult} and BatchResult.Timings.Stages.Stages(),
//	    the argument and result types of AnswerBatchPlan
//	wwt.{EngineCacheStats, CacheStats.HitRate, PlanStats, LiveInfo}, the snapshot types
//	serve.{New, Config, Backend}; serve.New must keep registering
//	    POST /v1/ingest for a backend that has IngestTables and Info
//	extract.{Page, NewOptions}
//	wtable.Table, the argument type of IngestTables
//
// Spans are recorded here, around the calls into each layer; nothing is
// added inside the program.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime/debug"
	"time"

	"wwt"
	"wwt/internal/extract"
	"wwt/internal/serve"
	"wwt/internal/wtable"
)

const (
	// traceRequests is how many requests of the workload's sequence the
	// traced pass replays.
	traceRequests = 1000
	// traceIngestEvery places the ingests of ingest-mixed in the serial
	// replay: every tenth request, about the ratio of the ingest schedule
	// to one closed-loop query client.
	traceIngestEvery = 10
	// extractPages is how many held-out pages the direct extract.Page
	// timing covers.
	extractPages = 100
)

// span is one timed interval. Start and End are nanoseconds since the
// trace began; Parent indexes the span that caused it, -1 for a root; the
// spans of one request share Req.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
}

// tracer keeps spans in memory. The replay is serial, so the open spans
// form a stack and need no lock.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
	req   int
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) begin(name string) int {
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: t.now(), Parent: parent, Req: t.req})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

func (t *tracer) end(id int) {
	t.spans[id].End = t.now()
	t.open = t.open[:len(t.open)-1]
}

// tracedBackend decorates the engine with a span around each call the
// server makes into it. The stages of a query become child spans laid end
// to end from the start of the call, from the Timings the call returns.
type tracedBackend struct {
	le *wwt.LiveEngine
	tr *tracer
}

func (b *tracedBackend) AnswerBatchPlan(ctx context.Context, queries []wwt.Query, workers int, perQuery time.Duration, bp wwt.BatchPlan) *wwt.BatchResult {
	id := b.tr.begin("engine.batch")
	br := b.le.AnswerBatchPlan(ctx, queries, workers, perQuery, bp)
	b.tr.end(id)
	at := b.tr.spans[id].Start
	for _, st := range br.Timings.Stages.Stages() {
		b.tr.spans = append(b.tr.spans, span{Name: "pipeline." + st.Name, Start: at, End: at + int64(st.D), Parent: id, Req: b.tr.req})
		at += int64(st.D)
	}
	return br
}

func (b *tracedBackend) IngestTables(tables []*wtable.Table) (wwt.LiveInfo, error) {
	id := b.tr.begin("live.ingest")
	defer b.tr.end(id)
	return b.le.IngestTables(tables)
}

func (b *tracedBackend) CacheStats() wwt.EngineCacheStats { return b.le.CacheStats() }
func (b *tracedBackend) PlanStats() wwt.PlanStats         { return b.le.PlanStats() }
func (b *tracedBackend) Info() wwt.LiveInfo               { return b.le.Info() }

// replayOp is one request of the serial replay.
type replayOp struct {
	Path string
	Body []byte
	Page int // index into inputs.Pages for an ingest, else -1
}

// replayOps is the first traceRequests requests of the workload's own
// sequence, ingests interleaved on the live workload.
func (in *inputs) replayOps() []replayOp {
	ops := make([]replayOp, 0, traceRequests)
	q, p := 0, 0
	for len(ops) < traceRequests {
		if in.Spec.Live && len(ops)%traceIngestEvery == traceIngestEvery-1 {
			ops = append(ops, replayOp{Path: "/v1/ingest", Body: in.Pages[p].Body, Page: p})
			p++
			continue
		}
		ops = append(ops, replayOp{Path: "/v1/answer", Body: in.Queries[in.Seq[q]].Body, Page: -1})
		q++
	}
	return ops
}

// counters accumulates the engine's count snapshots over the replay.
// Cache and probe counters restart with every generation, so they are
// summed request by request and a request that straddles a swap is left
// out.
type counters struct {
	cache                    wwt.EngineCacheStats
	blocksSkipped, blocksAll uint64
	shardsPruned             uint64
}

func (c *counters) add(b0, b1 wwt.EngineCacheStats, p0, p1 wwt.PlanStats) {
	sub := func(dst *wwt.CacheStats, a, b wwt.CacheStats) {
		dst.Hits += b.Hits - a.Hits
		dst.Misses += b.Misses - a.Misses
	}
	sub(&c.cache.Views, b0.Views, b1.Views)
	sub(&c.cache.PairSims, b0.PairSims, b1.PairSims)
	sub(&c.cache.DocSets, b0.DocSets, b1.DocSets)
	sub(&c.cache.NormCells, b0.NormCells, b1.NormCells)
	c.blocksSkipped += p1.ProbeBlocksSkipped - p0.ProbeBlocksSkipped
	c.blocksAll += p1.ProbeBlocksTotal - p0.ProbeBlocksTotal
	c.shardsPruned += p1.ProbeShardsPruned - p0.ProbeShardsPruned
}

// replayStats is what one serial replay observed from outside the engine.
type replayStats struct {
	wall                       time.Duration
	queries                    int
	failed                     int
	firstErr                   error
	shed, timeouts             int
	respBytes                  int64
	tables, relevant, rows     int
	usedProbe2                 int
	acked                      int
	ingestedBytes, writtenByte int64
	counts                     counters
	warmT                      time.Duration
	info0, info1               wwt.LiveInfo
	plan                       wwt.PlanStats
	proc0, proc1               procStat
	diskBytes                  int64
}

// replay opens the index in process, warms it with one pass over Q, and
// sends ops through the serving layer one at a time. With a tracer it
// wraps the engine and the handler in span recorders and takes the count
// snapshots; without one it runs the same requests bare, which gives the
// cost of tracing.
func replay(in *inputs, idx string, ops []replayOp, tr *tracer) (*replayStats, error) {
	rs := &replayStats{}
	var openID int
	if tr != nil {
		openID = tr.begin("index.open")
	}
	le, err := wwt.OpenLive(idx, nil)
	if err != nil {
		return nil, fmt.Errorf("open %s: %w", idx, err)
	}
	defer le.Close()
	if tr != nil {
		tr.end(openID)
	}

	var backend serve.Backend = le
	if tr != nil {
		backend = &tracedBackend{le: le, tr: tr}
	}
	srv := serve.New(backend, serve.Config{})
	var handler http.Handler = srv
	if tr != nil {
		handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			id := tr.begin("serve" + r.URL.Path[len("/v1"):]) // serve/answer, serve/ingest
			srv.ServeHTTP(w, r)
			tr.end(id)
		})
	}
	do := func(path string, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		return rec
	}
	note := func(err error) {
		rs.failed++
		if rs.firstErr == nil {
			rs.firstErr = err
		}
	}

	// Warm-up, as in the end-to-end run; the tracer is parked so that the
	// spans and counts cover the replay alone.
	start := time.Now()
	for _, q := range in.Queries {
		if rec := do("/v1/answer", q.Body); rec.Code != http.StatusOK {
			return nil, fmt.Errorf("warm-up, query %q: status %d: %.200s", q, rec.Code, rec.Body)
		}
	}
	rs.warmT = time.Since(start)
	if tr != nil {
		tr.spans = tr.spans[:openID+1]
	}

	seen := make(map[string]bool) // segment directories already counted as written
	rs.info0 = le.Info()
	if rs.proc0, err = readProc(os.Getpid()); err != nil {
		return nil, err
	}
	start = time.Now()
	for i, op := range ops {
		var b0 wwt.EngineCacheStats
		var p0 wwt.PlanStats
		var g0 uint64
		if tr != nil {
			tr.req = i
			b0, p0, g0 = le.CacheStats(), le.PlanStats(), le.Info().Generation
		}
		rec := do(op.Path, op.Body)
		if tr != nil && le.Info().Generation == g0 {
			rs.counts.add(b0, le.CacheStats(), p0, le.PlanStats())
		}
		switch rec.Code {
		case http.StatusTooManyRequests:
			rs.shed++
		case http.StatusGatewayTimeout:
			rs.timeouts++
		}
		if rec.Code != http.StatusOK {
			note(fmt.Errorf("%s: status %d: %.200s", op.Path, rec.Code, rec.Body))
			continue
		}
		if op.Page >= 0 {
			n, err := parseIngest(rec.Body.Bytes())
			if err != nil {
				note(err)
			}
			rs.acked += n
			rs.ingestedBytes += int64(len(in.Pages[op.Page].HTML))
			if tr != nil {
				rs.writtenByte += newSegmentBytes(idx, seen)
			}
			continue
		}
		rs.queries++
		rs.respBytes += int64(rec.Body.Len())
		m, err := decodeAnswer(rec.Body.Bytes())
		if err != nil {
			note(err)
			continue
		}
		rs.tables += m.Tables
		rs.relevant += m.Relevant
		rs.rows += len(m.Rows)
		if m.UsedProbe2 {
			rs.usedProbe2++
		}
	}
	rs.wall = time.Since(start)

	var waitID int
	if tr != nil {
		tr.req = -1
		waitID = tr.begin("live.wait_merges")
	}
	le.WaitMerges()
	if tr != nil {
		tr.end(waitID)
		rs.writtenByte += newSegmentBytes(idx, seen)
	}
	rs.info1 = le.Info()
	rs.plan = le.PlanStats()
	if rs.proc1, err = readProc(os.Getpid()); err != nil {
		return nil, err
	}
	if rs.diskBytes, err = dirBytes(idx); err != nil {
		return nil, err
	}
	if grew := rs.info1.Docs - rs.info0.Docs; grew != rs.acked {
		note(fmt.Errorf("index grew by %d tables, but %d were acknowledged", grew, rs.acked))
	}
	return rs, nil
}

// newSegmentBytes returns the size of the segment directories under idx
// that seen does not hold yet, and adds them to it: the bytes ingests and
// merges have written since the last call.
func newSegmentBytes(idx string, seen map[string]bool) int64 {
	des, err := os.ReadDir(filepath.Join(idx, "segments"))
	if err != nil {
		return 0 // no ingest yet
	}
	var total int64
	for _, de := range des {
		if seen[de.Name()] {
			continue
		}
		seen[de.Name()] = true
		n, _ := dirBytes(filepath.Join(idx, "segments", de.Name()))
		total += n
	}
	return total
}

// runTraced produces the per-layer metrics of one workload: it builds the
// same corpus and index as the end-to-end run, replays the workload's
// sequence in process bare, then once more with span recorders around
// every layer boundary. The bare replay goes first: whichever replay runs
// first is up to a tenth slower while the box settles after the index
// build, and the traced numbers are the ones that matter.
func runTraced(in *inputs) (*runResult, error) {
	res := newResult(in, 1)
	dir, err := os.MkdirTemp(outDir, in.Spec.Name+"-traced-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	onExit(func() { os.RemoveAll(dir) })
	idx, corpusT, indexT, err := buildIndex(dir, in.Seed, corpusScale)
	if err != nil {
		return nil, err
	}
	// The live workload grows the index it replays on, so the bare replay
	// gets a copy of its own.
	bareIdx := idx
	if in.Spec.Live {
		bareIdx = filepath.Join(dir, "idx-bare")
		if err := os.CopyFS(bareIdx, os.DirFS(idx)); err != nil {
			return nil, err
		}
	}
	ops := in.replayOps()

	bare, err := replay(in, bareIdx, ops, nil)
	if err != nil {
		return nil, err
	}
	debug.FreeOSMemory()
	tr := &tracer{t0: time.Now()}
	rs, err := replay(in, idx, ops, tr)
	if err != nil {
		return nil, err
	}

	// Direct timed calls into the extractor, on pages the engine never saw.
	opts := extract.NewOptions()
	extracted := 0
	for i := 0; i < extractPages; i++ {
		tr.req = -1
		id := tr.begin("extract.page")
		extracted += len(extract.Page(in.Pages[i].URL, in.Pages[i].HTML, opts))
		tr.end(id)
	}

	res.Attempted = 2 * len(ops)
	res.Failed = rs.failed + bare.failed
	if err := errors.Join(rs.firstErr, bare.firstErr); err != nil {
		res.fail("replay: %d of %d operations failed, e.g. %v", res.Failed, res.Attempted, err)
	}
	if rs.queries == 0 {
		return nil, errors.New("no query succeeded in the traced replay")
	}

	agg := aggregate(tr.spans)
	if agg.negative > 0 {
		res.fail("%d spans are shorter than their children", agg.negative)
	}
	nq := float64(rs.queries)
	for _, st := range []string{"probe1", "read1", "probe2", "read2", "colmap", "infer", "consolidate"} {
		res.set("pipeline."+st+"_ms", ms(agg.total["pipeline."+st])/nq, "ms")
	}
	res.set("pipeline.tables_per_query", float64(rs.tables)/nq, "count")
	res.set("pipeline.relevant_per_query", float64(rs.relevant)/nq, "count")
	res.set("pipeline.probe2_rate", float64(rs.usedProbe2)/nq, "share")
	res.set("pipeline.rows_per_answer", float64(rs.rows)/nq, "count")

	c := rs.counts
	res.set("core.pair_hit_rate", c.cache.PairSims.HitRate(), "share")
	res.set("core.pair_misses_per_query", float64(c.cache.PairSims.Misses)/nq, "count")
	res.set("core.view_hit_rate", c.cache.Views.HitRate(), "share")
	res.set("core.view_misses", float64(c.cache.Views.Misses), "count")
	res.set("text.norm_hit_rate", c.cache.NormCells.HitRate(), "share")
	res.set("index.docset_lookups", float64(c.cache.DocSets.Hits+c.cache.DocSets.Misses), "count")
	res.set("index.docset_hit_rate", c.cache.DocSets.HitRate(), "share")
	res.set("index.blocks_skipped_share", share(float64(c.blocksSkipped), float64(c.blocksAll)), "share")
	res.set("index.shards_pruned_per_query", float64(c.shardsPruned)/nq, "count")
	res.set("index.open_ms", ms(agg.total["index.open"]), "ms")
	res.set("index.disk_bytes", float64(rs.diskBytes), "B")

	res.set("proc.rss_start_mb", rs.proc0.RSSMB, "MB")
	res.set("proc.rss_end_mb", rs.proc1.RSSMB, "MB")
	res.set("proc.minor_faults", float64(rs.proc1.MinorFaults-rs.proc0.MinorFaults), "count")
	res.set("proc.major_faults", float64(rs.proc1.MajFaults-rs.proc0.MajFaults), "count")

	res.set("serve.handle_self_ms", ms(agg.self["serve/answer"])/nq, "ms")
	res.set("serve.resp_bytes_mean", float64(rs.respBytes)/nq, "B")
	res.set("serve.shed", float64(rs.shed), "count")
	res.set("serve.timeouts", float64(rs.timeouts), "count")
	res.set("engine.batch_ms_mean", ms(agg.total["engine.batch"])/nq, "ms")
	res.set("engine.batch_self_ms", ms(agg.self["engine.batch"])/nq, "ms")

	res.set("extract.page_ms_mean", ms(agg.total["extract.page"])/extractPages, "ms")
	res.set("extract.tables_per_page", float64(extracted)/extractPages, "count")
	ingestMS := sortedMS(agg.each["live.ingest"])
	generations := float64(rs.info1.Generation - rs.info0.Generation)
	res.set("live.ingest_ms_p50", percentile(ingestMS, 50), "ms")
	res.set("live.ingest_ms_max", percentile(ingestMS, 100), "ms")
	res.set("live.generations", generations, "count")
	res.set("live.merges", generations-float64(len(ingestMS)), "count")
	res.set("live.segments_end", float64(rs.info1.Segments), "count")
	res.set("live.wait_merges_ms", ms(agg.total["live.wait_merges"]), "ms")
	res.set("live.bytes_written_per_ingested_byte", share(float64(rs.writtenByte), float64(rs.ingestedBytes)), "B/B")
	res.set("live.post_swap_penalty_ms", postSwapPenaltyTraced(tr.spans), "ms")

	res.set("plan.cost_error", rs.plan.CostError, "share")
	calibrated := 0.0
	if rs.plan.Calibrated {
		calibrated = 1
	}
	res.set("plan.calibrated", calibrated, "bool")

	res.set("setup.corpus_s", corpusT.Seconds(), "s")
	res.set("setup.index_build_s", indexT.Seconds(), "s")
	res.set("setup.warm_s", rs.warmT.Seconds(), "s")
	res.set("loadgen.sent", float64(len(ops)), "count")
	res.set("loadgen.ok", float64(len(ops)-rs.failed), "count")
	res.set("loadgen.failed", float64(rs.failed), "count")
	res.set("trace.overhead_share", (rs.wall-bare.wall).Seconds()/bare.wall.Seconds(), "share")
	res.set("trace.spans", float64(len(tr.spans)), "count")

	res.info("trace.replay_s", rs.wall.Seconds(), "s")
	res.info("trace.bare_replay_s", bare.wall.Seconds(), "s")

	path := filepath.Join(outDir, "trace-"+in.Spec.Name+".json")
	if err := writeJSONFile(path, tr.spans); err != nil {
		return nil, err
	}
	fmt.Printf("trace: %d spans written to %s\n", len(tr.spans), path)
	return res, nil
}

func share(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return part / whole
}

// spanAggregate sums spans by name. A span's self time is its duration
// minus the part its children cover, so self time and children add up to
// the parent by definition; what can go wrong is a negative remainder.
type spanAggregate struct {
	total    map[string]time.Duration
	self     map[string]time.Duration
	each     map[string][]time.Duration
	negative int // spans whose children outlast them
}

func aggregate(spans []span) spanAggregate {
	a := spanAggregate{
		total: make(map[string]time.Duration),
		self:  make(map[string]time.Duration),
		each:  make(map[string][]time.Duration),
	}
	children := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range spans {
		d := s.End - s.Start
		self := d - children[i]
		if self < 0 {
			a.negative++
		}
		a.total[s.Name] += time.Duration(d)
		a.self[s.Name] += time.Duration(self)
		a.each[s.Name] = append(a.each[s.Name], time.Duration(d))
	}
	return a
}

// postSwapPenaltyTraced is the mean duration of the first query served
// after each ingest minus the median query duration.
func postSwapPenaltyTraced(spans []span) float64 {
	var all, first []time.Duration
	afterIngest := false
	for _, s := range spans {
		switch s.Name {
		case "serve/ingest":
			afterIngest = true
		case "serve/answer":
			d := time.Duration(s.End - s.Start)
			all = append(all, d)
			if afterIngest {
				first = append(first, d)
				afterIngest = false
			}
		}
	}
	if len(first) == 0 {
		return 0
	}
	return mean(sortedMS(first)) - percentile(sortedMS(all), 50)
}

func writeJSONFile(path string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
