package wwt_test

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (§5), plus the ablations of internal/eval/ablations.go. Run
// with
//
//	go test -bench=. -benchmem
//
// The corpus is generated once per process at a reduced scale so the
// whole suite completes in seconds; cmd/wwt-experiments regenerates the
// full-scale numbers.

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"wwt"
	"wwt/internal/baseline"
	"wwt/internal/consolidate"
	"wwt/internal/core"
	"wwt/internal/corpusgen"
	"wwt/internal/extract"
	"wwt/internal/index"
	"wwt/internal/inference"
	"wwt/internal/text"
	"wwt/internal/workload"
	"wwt/internal/wtable"
)

type benchWorld struct {
	corpus  *corpusgen.Corpus
	tables  []*wtable.Table
	engine  *wwt.Engine
	queries []workload.Query
	// Per-query candidates and models, prebuilt so solve-only benches
	// measure inference, not feature extraction.
	cands  [][]*wtable.Table
	models []*core.Model
}

var (
	worldOnce sync.Once
	world     *benchWorld
)

func getWorld(b *testing.B) *benchWorld {
	b.Helper()
	worldOnce.Do(func() {
		corpus := corpusgen.Generate(corpusgen.Config{Seed: 2012, Scale: 0.5})
		tables := corpus.ExtractAll(extract.NewOptions())
		eng, err := wwt.NewEngine(tables, nil)
		if err != nil {
			panic(err)
		}
		w := &benchWorld{
			corpus:  corpus,
			tables:  tables,
			engine:  eng,
			queries: workload.FromCorpus(corpus),
		}
		for _, q := range w.queries {
			cands, _, err := eng.Candidates(wwt.Query{Columns: q.Columns}, nil)
			if err != nil {
				cands = nil
			}
			builder := &core.Builder{Params: eng.Opts.Params, Stats: eng.Searcher(), PMI: eng.Searcher()}
			w.cands = append(w.cands, cands)
			w.models = append(w.models, builder.Build(q.Columns, cands))
		}
		world = w
	})
	return world
}

// BenchmarkTable1Workload measures the two-stage candidate retrieval of
// §2.2.1 across the workload (Table 1's candidate counts).
func BenchmarkTable1Workload(b *testing.B) {
	w := getWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := w.queries[i%len(w.queries)]
		if _, _, err := w.engine.Candidates(wwt.Query{Columns: q.Columns}, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5ColumnMapping measures the column-mapping stage (model
// build + table-centric inference) that Figure 5 evaluates.
func BenchmarkFig5ColumnMapping(b *testing.B) {
	w := getWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := w.queries[i%len(w.queries)]
		w.engine.MapColumns(wwt.Query{Columns: q.Columns}, w.cands[i%len(w.queries)])
	}
}

// BenchmarkFig5Baseline measures the Basic baseline on the same task.
func BenchmarkFig5Baseline(b *testing.B) {
	w := getWorld(b)
	cfg := baseline.DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		qi := i % len(w.queries)
		baseline.Solve(baseline.Basic, cfg, w.queries[qi].Columns, w.cands[qi], w.engine.Searcher(), nil)
	}
}

// BenchmarkFig5PMI2 measures the PMI² baseline — the paper reports it
// roughly 6x slower than Basic end to end (40s vs 6.3s per query).
func BenchmarkFig5PMI2(b *testing.B) {
	w := getWorld(b)
	cfg := baseline.DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		qi := i % len(w.queries)
		baseline.Solve(baseline.PMI2, cfg, w.queries[qi].Columns, w.cands[qi], w.engine.Searcher(), w.engine.Searcher())
	}
}

// BenchmarkFig6Consolidation measures the consolidator (Figure 6's answer
// tables).
func BenchmarkFig6Consolidation(b *testing.B) {
	w := getWorld(b)
	labelings := make([]core.Labeling, len(w.queries))
	for i := range w.queries {
		labelings[i] = inference.SolveTableCentric(w.models[i])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		qi := i % len(w.queries)
		consolidate.Consolidate(w.queries[qi].Q(), w.models[qi].Views, labelings[qi],
			w.models[qi].Rel, consolidate.NewOptions(), nil)
	}
}

// consolidateSink keeps the benchmarked answer live.
var consolidateSink *consolidate.Answer

// BenchmarkConsolidate measures the consolidator the way the pipeline
// runs it: through one reused Scratch, whose key indexes and row buffers
// stay warm across calls, so a call allocates only the Answer it returns.
// Compare with BenchmarkFig6Consolidation, which gives every call a fresh
// scratch.
func BenchmarkConsolidate(b *testing.B) {
	w := getWorld(b)
	labelings := make([]core.Labeling, len(w.queries))
	for i := range w.queries {
		labelings[i] = inference.SolveTableCentric(w.models[i])
	}
	var s consolidate.Scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		qi := i % len(w.queries)
		consolidateSink = consolidate.Consolidate(w.queries[qi].Q(), w.models[qi].Views, labelings[qi],
			w.models[qi].Rel, consolidate.NewOptions(), &s)
	}
}

// BenchmarkFig7QueryPipeline measures the full online pipeline per query
// (Figure 7's total running time).
func BenchmarkFig7QueryPipeline(b *testing.B) {
	w := getWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := w.queries[i%len(w.queries)]
		res, err := w.engine.Answer(wwt.Query{Columns: q.Columns})
		if err != nil {
			b.Fatal(err)
		}
		// Releasing per iteration measures the steady state the pooled
		// arena is designed for; discarding results starved the pool and
		// charged every op a fresh arena.
		res.Release()
	}
}

// BenchmarkFig7QueryPipelinePooled is the steady-state serving variant of
// the full pipeline: each query releases its arena back to the engine
// pool, so warm-pool Answer runs with the scratch buffers of earlier
// queries instead of fresh allocations.
func BenchmarkFig7QueryPipelinePooled(b *testing.B) {
	w := getWorld(b)
	// Warm the pool across the whole workload before measuring.
	for _, q := range w.queries {
		res, err := w.engine.Answer(wwt.Query{Columns: q.Columns})
		if err != nil {
			b.Fatal(err)
		}
		res.Release()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := w.queries[i%len(w.queries)]
		res, err := w.engine.Answer(wwt.Query{Columns: q.Columns})
		if err != nil {
			b.Fatal(err)
		}
		res.Release()
	}
}

// BenchmarkLiveQueryPipeline is BenchmarkFig7QueryPipelinePooled on a
// live engine whose index is split into segments, as a daemon's is after
// ingests: the corpus minus 15 tables is written as the base index, and
// the 15 go in one table per ingest, each ingest drained of its merges.
// The tier merges leave base + 3 merged + 3 one-table segments, so every
// per-segment cost of a query (its probes, its IDF lookups) is paid 7
// times where the in-memory engine pays it once.
func BenchmarkLiveQueryPipeline(b *testing.B) {
	w := getWorld(b)
	const ingested = 15
	base, held := w.tables[:len(w.tables)-ingested], w.tables[len(w.tables)-ingested:]
	dir := b.TempDir()
	if err := index.WriteDir(dir, base, 1); err != nil {
		b.Fatal(err)
	}
	eng, err := wwt.OpenLive(dir, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	for _, t := range held {
		if _, err := eng.IngestTables([]*wtable.Table{t}); err != nil {
			b.Fatal(err)
		}
		eng.WaitMerges()
	}
	segments := eng.Info().Segments
	if segments < 4 {
		b.Fatalf("%d segments after the ingests, want at least 4", segments)
	}
	for _, q := range w.queries {
		res, err := eng.Answer(wwt.Query{Columns: q.Columns})
		if err != nil {
			b.Fatal(err)
		}
		res.Release()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := w.queries[i%len(w.queries)]
		res, err := eng.Answer(wwt.Query{Columns: q.Columns})
		if err != nil {
			b.Fatal(err)
		}
		res.Release()
	}
	b.ReportMetric(float64(segments), "segments")
}

// BenchmarkFig8Segmentation and BenchmarkFig8Unsegmented compare the cost
// of model building under the segmented similarity (Eq. 1) and the plain
// unsegmented cosine of §5.2.
func BenchmarkFig8Segmentation(b *testing.B) {
	benchModelBuild(b, false)
}

// BenchmarkFig8Unsegmented is the §5.2 comparison model's build cost.
func BenchmarkFig8Unsegmented(b *testing.B) {
	benchModelBuild(b, true)
}

func benchModelBuild(b *testing.B, unsegmented bool) {
	w := getWorld(b)
	params := w.engine.Opts.Params
	params.Unsegmented = unsegmented
	// Fig 8 deliberately builds cacheless (a params sweep can't share view
	// caches), but a sweep CAN share one interner across configurations —
	// the symbol table is pure content addressing.
	builder := &core.Builder{Params: params, Stats: w.engine.Searcher(), PMI: w.engine.Searcher(), Interner: core.NewInterner()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		qi := i % len(w.queries)
		builder.Build(w.queries[qi].Columns, w.cands[qi])
	}
}

// BenchmarkTable2Inference benchmarks each collective inference algorithm
// on prebuilt models (Table 2's runtime comparison: the paper reports
// table-centric fastest, α-expansion ~5x, BP ~6x, TRWS ~30x slower).
func BenchmarkTable2Inference(b *testing.B) {
	w := getWorld(b)
	for _, alg := range inference.Algorithms {
		b.Run(alg.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				inference.Solve(w.models[i%len(w.models)], alg)
			}
		})
	}
}

// BenchmarkAblationEdgePotentials compares the edge-potential variants of
// §3.3 (reweight + table-centric solve per variant).
func BenchmarkAblationEdgePotentials(b *testing.B) {
	w := getWorld(b)
	for _, variant := range []core.EdgeVariant{core.EdgeCustom, core.EdgePotts, core.EdgePottsNoNR} {
		b.Run(variant.String(), func(b *testing.B) {
			params := w.engine.Opts.Params
			params.Edges = variant
			for i := 0; i < b.N; i++ {
				m := w.models[i%len(w.models)].Reweight(params)
				inference.SolveTableCentric(m)
			}
		})
	}
}

// BenchmarkAblationMutexCut compares the constrained-cut mutex handling
// against post-hoc repair inside α-expansion (§4.3).
func BenchmarkAblationMutexCut(b *testing.B) {
	w := getWorld(b)
	b.Run("constrained-cut", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			inference.SolveAlphaExpansion(w.models[i%len(w.models)])
		}
	})
	b.Run("post-hoc", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			inference.SolveAlphaExpansionPostHocMutex(w.models[i%len(w.models)])
		}
	})
}

// BenchmarkOfflineExtraction measures the §2.1 offline pipeline: HTML
// parsing, table extraction, header detection and context scoring.
func BenchmarkOfflineExtraction(b *testing.B) {
	w := getWorld(b)
	opts := extract.NewOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := w.corpus.Pages[i%len(w.corpus.Pages)]
		extract.Page(p.URL, p.HTML, opts)
	}
}

// queryTokens normalizes every workload query once for the probe benches.
func queryTokens(w *benchWorld) [][]string {
	out := make([][]string, len(w.queries))
	for i, q := range w.queries {
		var tokens []string
		for _, col := range q.Columns {
			tokens = append(tokens, text.Normalize(col)...)
		}
		out[i] = tokens
	}
	return out
}

// BenchmarkSearchDense measures the frozen CSR searcher (dense accumulator,
// precomputed weights, bounded top-k with max-score skip) on the workload's
// first-probe token sets.
func BenchmarkSearchDense(b *testing.B) {
	w := getWorld(b)
	toks := queryTokens(w)
	s := w.engine.Searcher()
	k := w.engine.Opts.ProbeK
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Search(toks[i%len(toks)], k)
	}
}

// BenchmarkBuildParallel measures the model build (with the engine's
// shared view cache) over the workload's candidate sets, one query at a
// time; a build runs on its caller's goroutine, so concurrent queries are
// what spread builds across CPUs.
func BenchmarkBuildParallel(b *testing.B) {
	w := getWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		qi := i % len(w.queries)
		w.engine.MapColumns(wwt.Query{Columns: w.queries[qi].Columns}, w.cands[qi])
	}
}

// edgeBenchBuilder returns a builder with a pre-warmed view cache, so the
// bench it serves isolates edge construction.
func edgeBenchBuilder(w *benchWorld) *core.Builder {
	views := core.NewViewCache()
	b := &core.Builder{Params: w.engine.Opts.Params, Stats: w.engine.Searcher(), PMI: w.engine.Searcher(), Views: views}
	for i, q := range w.queries {
		b.Build(q.Columns, w.cands[i])
	}
	return b
}

// BenchmarkBuildModelEdges measures a model build over warm views: the
// full Jaccard grid plus the per-table-pair max-matching runs each time,
// as it does for every query.
func BenchmarkBuildModelEdges(b *testing.B) {
	w := getWorld(b)
	builder := edgeBenchBuilder(w)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		qi := i % len(w.queries)
		builder.Build(w.queries[qi].Columns, w.cands[qi])
	}
}

// BenchmarkAnswerConcurrent measures full-pipeline throughput with many
// querying goroutines sharing one engine (run with -race to verify the
// concurrent hot path).
func BenchmarkAnswerConcurrent(b *testing.B) {
	w := getWorld(b)
	var next atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			qi := int(next.Add(1)) % len(w.queries)
			res, err := w.engine.Answer(wwt.Query{Columns: w.queries[qi].Columns})
			if err != nil {
				b.Error(err)
				return
			}
			res.Release()
		}
	})
}

// batchQueries converts the workload into the public query type once.
func batchQueries(w *benchWorld) []wwt.Query {
	out := make([]wwt.Query, len(w.queries))
	for i, q := range w.queries {
		out[i] = wwt.Query{Columns: q.Columns}
	}
	return out
}

// BenchmarkAnswerBatch measures batched full-pipeline throughput: the
// whole workload per iteration through AnswerBatchCtx on a GOMAXPROCS worker
// pool, every member released back to the arena pool. Compare against
// BenchmarkAnswerBatchSerial (same queries, solo Answer loop) for the
// queries/sec speedup; both report a qps metric.
func BenchmarkAnswerBatch(b *testing.B) {
	w := getWorld(b)
	queries := batchQueries(w)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		br := w.engine.AnswerBatchCtx(context.Background(), queries, 0, 0)
		if err := br.FirstErr(); err != nil {
			b.Fatal(err)
		}
		br.Release()
	}
	b.ReportMetric(float64(len(queries)*b.N)/b.Elapsed().Seconds(), "qps")
}

// BenchmarkAnswerBatchSerial is the before side of the batch entry point:
// the same workload answered one query at a time (arenas still pooled via
// Release), so the only difference from BenchmarkAnswerBatch is the
// batch-level worker pool.
func BenchmarkAnswerBatchSerial(b *testing.B) {
	w := getWorld(b)
	queries := batchQueries(w)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range queries {
			res, err := w.engine.Answer(q)
			if err != nil {
				b.Fatal(err)
			}
			res.Release()
		}
	}
	b.ReportMetric(float64(len(queries)*b.N)/b.Elapsed().Seconds(), "qps")
}

// BenchmarkIndexBuild measures building the boosted 3-field index.
func BenchmarkIndexBuild(b *testing.B) {
	w := getWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wwt.NewEngine(w.tables, nil); err != nil {
			b.Fatal(err)
		}
	}
}
