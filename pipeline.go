package wwt

// The Fig. 2 query path as an explicit staged pipeline:
//
//	Probe1 → Read1 → Probe2 → Read2 → ColumnMap → Infer → Consolidate
//
// Each stage is a named Engine method with explicit inputs/outputs carried
// by a queryState, fed by one pooled QueryScratch arena. Answer and
// AnswerBatchCtx run the whole list; a caller that wants only the
// candidates or the column mapping reads them off the Result (Tables,
// UsedProbe2, Labeling). A stage sees only the state fields it declares,
// and the per-stage Timings split falls out of runStages' loop.

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
	"time"

	"wwt/internal/consolidate"
	"wwt/internal/core"
	"wwt/internal/index"
	"wwt/internal/inference"
	"wwt/internal/text"
	"wwt/internal/wtable"
)

// QueryScratch is the pooled per-query arena: every stage's reusable flat
// buffers live here — probe token buffers, the model builder's grids, the
// inference message arrays, and consolidation's key indexes. The zero
// value is ready to use.
//
// Ownership: an arena is drawn from the engine pool at the start of a
// query and owned by exactly one query at a time, from its first stage to
// its last. Answer puts it back before it returns, whether the query
// succeeded or failed; a panicking query's arena is dropped instead. The
// column-mapping model lives in the arena and never leaves the query.
// Everything a Result holds — answer rows, labeling, tables — is freshly
// allocated, so a later query on the same arena cannot touch it. Scratch
// buffers must never be written into the engine's cross-query caches;
// cache-owned slices referenced from scratch fields are read-only. The
// pool is engine-lifetime, so an arena filled on one generation serves
// the next after a swap; every stage resets what it reuses, which keeps
// that bit-identical (TestHotSwapConcurrent).
type QueryScratch struct {
	tokens []string // probe-1 query tokens
	sample []string // probe-2 token buffer (distinct from tokens: never aliased)

	// Probe-2 row sampling: the generator, re-seeded per query, and
	// sampleRows' output and displaced slots.
	rng       *rand.Rand
	rows      []int
	displaced map[int]int

	build core.BuildScratch
	infer inference.Scratch
	cons  consolidate.Scratch
}

// getScratch draws an arena from the pool (fresh when empty).
func (e *Engine) getScratch() *QueryScratch {
	if s, ok := e.scratch.Get().(*QueryScratch); ok && s != nil {
		return s
	}
	return &QueryScratch{}
}

// putScratch returns an arena to the pool.
func (e *Engine) putScratch(s *QueryScratch) { e.scratch.Put(s) }

// queryState is the data flowing between pipeline stages. Each stage
// reads the fields earlier stages wrote and fills its own outputs. The
// outputs a Result takes (tables, labeling, answer) own their storage;
// model lives in the query's arena.
type queryState struct {
	g      *generation // the generation the whole call is pinned to
	query  Query
	tokens []string // normalized probe-1 tokens (scratch-backed)

	hits1 []index.Hit // first-probe hits
	hits2 []index.Hit // second-probe hits (when probe2Fired)

	tables      []*wtable.Table // deduplicated candidates, probe-1 order first
	probe2Fired bool

	model    *core.Model // per-table state after probe2, the full model after colmap
	labeling core.Labeling
	answer   *consolidate.Answer
}

// pipelineStage names one stage and binds it to its Timings slot. run
// reports whether the stage actually did work: a skipped stage (e.g. the
// second probe when disabled or unseeded) leaves its Timings slot at zero.
type pipelineStage struct {
	name  string
	clock func(*Timings) *time.Duration
	run   func(*Engine, *queryState, *QueryScratch) (bool, error)
}

// answerPipeline is the full Fig. 2 online path.
var answerPipeline = []pipelineStage{
	{"probe1", func(t *Timings) *time.Duration { return &t.Probe1 }, (*Engine).stageProbe1},
	{"read1", func(t *Timings) *time.Duration { return &t.Read1 }, (*Engine).stageRead1},
	{"probe2", func(t *Timings) *time.Duration { return &t.Probe2 }, (*Engine).stageProbe2},
	{"read2", func(t *Timings) *time.Duration { return &t.Read2 }, (*Engine).stageRead2},
	{"colmap", func(t *Timings) *time.Duration { return &t.ColumnMap }, (*Engine).stageColumnMap},
	{"infer", func(t *Timings) *time.Duration { return &t.Infer }, (*Engine).stageInfer},
	{"consolidate", func(t *Timings) *time.Duration { return &t.Consolidate }, (*Engine).stageConsolidate},
}

// runStages drives a stage list over one query, recording each stage's
// wall time in its Timings slot. Cancellation is checked between stages:
// a query whose context is canceled or past its deadline stops before
// the next stage starts and returns ctx.Err(). Stages themselves run to
// completion, so an aborted query leaves its arena in the same
// merely-reusable state as any other failed query — safe to return to
// the pool, never poisoned.
func (e *Engine) runStages(ctx context.Context, stages []pipelineStage, st *queryState, s *QueryScratch, tm *Timings) error {
	for i := range stages {
		if err := ctx.Err(); err != nil {
			return err
		}
		start := time.Now()
		ran, err := stages[i].run(e, st, s)
		if ran {
			*stages[i].clock(tm) = time.Since(start)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// Query shape limits. A query's cost grows faster than linearly in its
// width and in its column length, and the deadline is checked only
// between stages, so an unbounded query could hold a worker inside one
// stage for seconds. Real queries name a few columns of a few words each.
const (
	maxQueryColumns = 16 // columns per query
	maxColumnTokens = 32 // normalized tokens per column
)

// stageProbe1 normalizes the query columns into one keyword set and runs
// the first index probe. It rejects a query outside the shape limits.
func (e *Engine) stageProbe1(st *queryState, s *QueryScratch) (bool, error) {
	if len(st.query.Columns) == 0 {
		return false, fmt.Errorf("wwt: empty query")
	}
	if n := len(st.query.Columns); n > maxQueryColumns {
		return false, fmt.Errorf("wwt: query has %d columns, over the limit of %d", n, maxQueryColumns)
	}
	tokens := s.tokens[:0]
	for i, col := range st.query.Columns {
		start := len(tokens)
		tokens = append(tokens, text.Normalize(col)...)
		if n := len(tokens) - start; n > maxColumnTokens {
			return false, fmt.Errorf("wwt: query column %d has %d words, over the limit of %d", i+1, n, maxColumnTokens)
		}
	}
	s.tokens = tokens
	st.tokens = tokens
	if len(tokens) == 0 {
		return false, fmt.Errorf("wwt: query has no content words")
	}
	st.hits1 = e.search(st.g.searcher, tokens, probeK)
	return true, nil
}

// stageRead1 resolves the first-probe hits to their tables through the
// pinned generation's table slice.
func (e *Engine) stageRead1(st *queryState, _ *QueryScratch) (bool, error) {
	st.tables = st.g.readTables(st.hits1)
	return true, nil
}

// stageProbe2 runs the content-overlap re-probe of §2.2.1: a stage-1
// column mapping finds confident tables, rows sampled from them extend the
// keyword set, and the index is probed again. The stage-1 mapping needs
// only per-table state — Independent inference never reads edges — so the
// model is built without them, in the query's arena, and handed on in
// st.model for ColumnMap to extend with the second probe's tables. The
// stage reports that it ran whenever it built that model, whether or not
// the re-probe then fires (st.probe2Fired), so its cost is always timed.
func (e *Engine) stageProbe2(st *queryState, s *QueryScratch) (bool, error) {
	if !e.Opts.SecondProbe || len(st.tables) == 0 {
		return false, nil
	}
	m := e.builder(st.g).BuildTables(st.query.Columns, st.tables, &s.build)
	st.model = m
	l := s.infer.Independent(m)
	type scored struct {
		ti  int
		rel float64
	}
	// Top-two confident tables by relevance in one linear scan; strict
	// comparisons keep the earlier table on ties, matching a stable sort.
	var confident [2]scored
	nConf := 0
	for ti := range st.tables {
		if !l.Relevant(ti) || m.Rel[ti] < minConfidentRelevance {
			continue
		}
		sc := scored{ti, m.Rel[ti]}
		switch {
		case nConf == 0:
			confident[0] = sc
			nConf = 1
		case sc.rel > confident[0].rel:
			confident[1] = confident[0]
			if nConf < 2 {
				nConf = 2
			}
			confident[0] = sc
		case nConf < 2:
			confident[1] = sc
			nConf = 2
		case sc.rel > confident[1].rel:
			confident[1] = sc
		}
	}
	if nConf == 0 {
		// No confident seed table: the second probe never fires.
		return true, nil
	}
	// Sample rows deterministically per query.
	h := fnv.New64a()
	for _, c := range st.query.Columns {
		h.Write([]byte(c))
	}
	// Seed restores exactly the state NewSource builds, so the sample is
	// the one a fresh generator draws.
	if s.rng == nil {
		s.rng = rand.New(rand.NewSource(0))
	}
	s.rng.Seed(int64(h.Sum64()))
	if s.displaced == nil {
		s.displaced = make(map[int]int)
	}
	// Probe-2 tokens go into their own scratch buffer — never an alias of
	// tokens, so appending can't grow into (and later clobber) its array.
	sample := append(s.sample[:0], st.tokens...)
	// A sampled cell's tokens are its interned key split on spaces: the
	// view built above already normalized every body cell.
	for i := 0; i < nConf; i++ {
		v := m.Views[confident[i].ti]
		rows := v.Table.NumBodyRows()
		take := min(secondProbeRows, rows)
		s.rows = sampleRows(s.rng, rows, take, s.rows, s.displaced)
		for _, r := range s.rows {
			for c := 0; c < v.NumCols; c++ {
				for key := v.CellKey(r, c); key != ""; {
					var w string
					w, key, _ = strings.Cut(key, " ")
					sample = append(sample, w)
				}
			}
		}
	}
	s.sample = sample
	st.hits2 = e.search(st.g.searcher, sample, probeK)
	st.probe2Fired = true
	return true, nil
}

// stageRead2 merges the second-probe tables into the candidate list,
// keeping first-probe order first and dropping the tables probe 1 already
// found. A generation's doc numbers and table IDs are both unique, so
// matching doc numbers drops exactly the duplicate tables; each probe
// returns at most probeK hits, so a linear scan does.
func (e *Engine) stageRead2(st *queryState, _ *QueryScratch) (bool, error) {
	if !st.probe2Fired {
		return false, nil
	}
	for _, h := range st.hits2 {
		if !hasDoc(st.hits1, h.Doc) {
			st.tables = append(st.tables, st.g.tables[h.Doc])
		}
	}
	return true, nil
}

// hasDoc reports whether hits holds a hit on global doc number doc.
func hasDoc(hits []index.Hit, doc int32) bool {
	for _, h := range hits {
		if h.Doc == doc {
			return true
		}
	}
	return false
}

// stageColumnMap assembles the §3 graphical model over the candidate set:
// it extends the per-table state stageProbe2 built over the first-probe
// tables (an empty model when that stage did not run) with the remaining
// candidates and builds the edges once over all of them — identical to a
// full build, with no table analyzed twice.
func (e *Engine) stageColumnMap(st *queryState, s *QueryScratch) (bool, error) {
	b := e.builder(st.g)
	if st.model == nil {
		st.model = b.BuildTables(st.query.Columns, nil, &s.build)
	}
	st.model.Extend(b, st.tables[len(st.model.Views):], &s.build)
	return true, nil
}

// stageInfer runs table-centric collective inference (§4.2).
func (e *Engine) stageInfer(st *queryState, s *QueryScratch) (bool, error) {
	st.labeling = s.infer.TableCentric(st.model)
	return true, nil
}

// stageConsolidate merges and ranks the relevant tables' rows (§2.2.3).
func (e *Engine) stageConsolidate(st *queryState, s *QueryScratch) (bool, error) {
	st.answer = consolidate.Consolidate(len(st.query.Columns), st.model.Views,
		st.labeling, st.model.Rel, &s.cons)
	return true, nil
}

// Answer runs the full pipeline: probes, column mapping with
// table-centric inference (§4.2), and consolidation. The per-query arena
// is drawn from the engine pool and goes back to it before Answer returns
// (see QueryScratch for the contract).
func (e *Engine) Answer(q Query) (*Result, error) {
	return e.AnswerCtx(context.Background(), q)
}

// AnswerCtx is Answer under a context: cancellation and the deadline are
// checked between pipeline stages, and an aborted query returns ctx.Err().
// Individual stages are not interrupted mid-flight, so the abort latency
// is bounded by the longest single stage. An aborted query's arena goes
// back to the engine pool exactly like any other query's.
func (e *Engine) AnswerCtx(ctx context.Context, q Query) (*Result, error) {
	g := e.acquire()
	defer e.release(g)
	s := e.getScratch()
	res, err := e.answerOn(ctx, &queryState{g: g, query: q}, s)
	// Not deferred: a panicking query's arena is dropped, never pooled.
	e.putScratch(s)
	return res, err
}

// answerOn drives the full stage list over st, whose generation the
// caller has pinned, on arena s. The Result owns its storage; st.model
// stays in s.
func (e *Engine) answerOn(ctx context.Context, st *queryState, s *QueryScratch) (*Result, error) {
	res := &Result{}
	if err := e.runStages(ctx, answerPipeline, st, s, &res.Timings); err != nil {
		return nil, err
	}
	res.Tables = st.tables
	res.UsedProbe2 = st.probe2Fired
	res.Labeling = st.labeling
	res.Answer = st.answer
	return res, nil
}
