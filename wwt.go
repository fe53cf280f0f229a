package wwt

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"wwt/internal/consolidate"
	"wwt/internal/core"
	"wwt/internal/index"
	"wwt/internal/slicex"
	"wwt/internal/wtable"
)

// Query is a column-keyword query: one keyword set per desired answer
// column.
type Query struct {
	Columns []string
}

// Options configures an Engine. The zero value is not useful; start from
// DefaultOptions.
type Options struct {
	// Params are the column-mapper parameters: the trained weights and
	// the model variant. They are fixed at engine construction (queries
	// read them concurrently); build a new engine to change them.
	Params core.Params
	// SecondProbe enables the content-overlap re-probe of §2.2.1.
	SecondProbe bool
}

// The probe constants of §2.2.1.
const (
	// probeK is the number of candidates fetched per index probe.
	probeK = 40
	// secondProbeRows is the number of random rows sampled from each
	// confident table for the second probe (10 in the paper).
	secondProbeRows = 10
	// minConfidentRelevance gates which stage-1 tables seed the second
	// probe ("very high relevance score").
	minConfidentRelevance float64 = 0.75
)

// DefaultOptions returns the paper-faithful configuration.
func DefaultOptions() Options {
	return Options{Params: core.DefaultParams(), SecondProbe: true}
}

// Timings is the per-stage running time split of Fig. 7: one field per
// pipeline stage. Probe2 covers the stage-1 mapping over the first-probe
// tables (their per-table model state) whenever the second probe is
// enabled, plus the re-probe when it fires (Result.UsedProbe2);
// ColumnMap covers the rest of the model build — the second probe's
// tables and the edges; Infer is the collective inference solve, reported
// separately.
//
// A stage added here must also be added to fields (and timingsStageNames)
// below — that list is the single enumeration Add, Total and Stages
// iterate, and TestTimingsFieldsComplete pins it against the struct by
// reflection, so a new stage can't be silently dropped from aggregation.
type Timings struct {
	Probe1      time.Duration
	Read1       time.Duration
	Probe2      time.Duration
	Read2       time.Duration
	ColumnMap   time.Duration
	Infer       time.Duration
	Consolidate time.Duration
}

// timingsStageNames are the pipeline names of the Timings fields, aligned
// index-for-index with fields.
var timingsStageNames = []string{
	"probe1", "read1", "probe2", "read2", "colmap", "infer", "consolidate",
}

// fields returns pointers to every stage duration in pipeline order — the
// one place the stage set is enumerated.
func (t *Timings) fields() []*time.Duration {
	return []*time.Duration{
		&t.Probe1, &t.Read1, &t.Probe2, &t.Read2, &t.ColumnMap, &t.Infer, &t.Consolidate,
	}
}

// Add accumulates o into t, field by field.
func (t *Timings) Add(o Timings) {
	tf, of := t.fields(), o.fields()
	for i := range tf {
		*tf[i] += *of[i]
	}
}

// Total sums all stages.
func (t Timings) Total() time.Duration {
	var sum time.Duration
	for _, d := range t.fields() {
		sum += *d
	}
	return sum
}

// StageTiming is one named stage's duration, as enumerated by Stages.
type StageTiming struct {
	Name string
	D    time.Duration
}

// Stages lists every stage with its pipeline name, in pipeline order.
// Consumers that aggregate or export per-stage time (batch accounting,
// the serving daemon's /metrics) iterate this instead of hand-copying the
// field list.
func (t Timings) Stages() []StageTiming {
	f := t.fields()
	out := make([]StageTiming, len(f))
	for i := range f {
		out[i] = StageTiming{timingsStageNames[i], *f[i]}
	}
	return out
}

// Result is the full outcome of answering a query. It owns everything it
// holds: no field aliases the query's pooled arena, which went back to
// the engine before Answer returned.
type Result struct {
	Answer     *consolidate.Answer
	Labeling   core.Labeling
	Tables     []*wtable.Table // candidate tables, in model order
	UsedProbe2 bool
	Timings    Timings
}

// Engine answers column-keyword queries over an indexed table corpus. It
// is only ever obtained from NewEngine or OpenLive, and is safe for
// concurrent use. Its state has two layers:
//
//   - Engine-lifetime state, set once by the constructor: Opts, the
//     table-view cache and its interner, the scratch-arena pool, the
//     probe counters, and the directory, manifest, table-ID, merge and
//     ingest state of live.go (unset unless the engine came from
//     OpenLive).
//   - The current generation: an immutable, refcounted corpus snapshot
//     (a searcher and its tables by doc number) behind an atomic pointer.
//     Every query entry point pins one generation for its whole call, so
//     IngestTables and background merges swap generations under running
//     queries without disturbing them.
type Engine struct {
	Opts Options

	// views holds every analyzed table view, keyed by table pointer. A
	// view carries no corpus statistics and a swap keeps the table
	// pointers it carries over, so views built on one generation serve
	// every later one.
	views   *core.ViewCache
	scratch sync.Pool // *QueryScratch

	// Probe-pruning counters: cumulative block-max outcomes across every
	// index probe this engine ran (both pipeline probes; see
	// index.ProbeStats). Exported through PlanStats.
	probeBlocksTotal   atomic.Int64
	probeBlocksSkipped atomic.Int64

	cur atomic.Pointer[generation]

	// Directory state (live.go). dir is empty unless the engine was
	// opened by OpenLive. mu serializes ingest, merge, generation
	// publication and Close; queries never take it. Under mu, segTables
	// holds each committed manifest segment's tables in doc order, and
	// ids the set of every table ID in the corpus.
	dir       string
	mu        sync.Mutex
	closed    bool
	manifest  index.Manifest
	segTables [][]*wtable.Table
	ids       map[string]bool
	nextSeq   uint64
	merges    sync.WaitGroup

	ingestErrors atomic.Uint64
	mergesDone   atomic.Uint64
	mergeErrors  atomic.Uint64 // background merges that failed (and were dropped)
	retired      atomic.Uint64 // generations replaced by a swap
	reclaimed    atomic.Uint64 // retired generations whose last ref released
}

// generation is one published corpus snapshot: the searcher and its
// tables, indexed by global doc number, so a probe hit names its table.
// It is immutable once published. The published pointer holds one
// reference and every pinned call another; the last release closes the
// searcher.
type generation struct {
	searcher  *index.Searcher
	tables    []*wtable.Table
	refs      atomic.Int64
	closeOnce sync.Once
}

// newGeneration wraps a searcher and its tables (tables[d] is doc d),
// holding the published pointer's one reference.
func newGeneration(s *index.Searcher, tables []*wtable.Table) *generation {
	g := &generation{searcher: s, tables: tables}
	g.refs.Store(1)
	return g
}

// acquire pins the current generation for one call. The validate-retry
// loop closes the race against a concurrent retire: incrementing after
// the swap-and-release could resurrect a generation whose refcount
// already hit zero, so the increment only counts if the generation is
// still the published one afterwards.
func (e *Engine) acquire() *generation {
	for {
		g := e.cur.Load()
		g.refs.Add(1)
		if e.cur.Load() == g {
			return g
		}
		e.release(g)
	}
}

// release drops one reference to g; the last one closes its searcher.
func (e *Engine) release(g *generation) {
	if g.refs.Add(-1) == 0 {
		g.closeOnce.Do(func() {
			g.searcher.Close()
			e.reclaimed.Add(1)
		})
	}
}

// NewEngine indexes the given tables in memory and returns a ready engine
// whose one generation never changes: IngestTables refuses, and
// WaitMerges returns at once. A nil table, an empty ID or a duplicate ID
// is an error. opts may be nil for DefaultOptions.
func NewEngine(tables []*wtable.Table, opts *Options) (*Engine, error) {
	ix, err := index.Build(tables)
	if err != nil {
		return nil, fmt.Errorf("wwt: %w", err)
	}
	return newEngine(newGeneration(index.NewSearcher(ix), slices.Clone(tables)), opts), nil
}

// newEngine sets up the engine-lifetime state around generation g.
func newEngine(g *generation, opts *Options) *Engine {
	o := DefaultOptions()
	if opts != nil {
		o = *opts
	}
	e := &Engine{
		Opts:  o,
		views: core.NewViewCache(),
	}
	e.cur.Store(g)
	return e
}

// Searcher returns the current generation's searcher: the probe surface,
// and the corpus statistics (core.CorpusStats) the feature code reads. It
// does not pin the generation, so it is exact for an engine that never
// ingests; on one that does, a later swap retires what it returned.
func (e *Engine) Searcher() *index.Searcher { return e.cur.Load().searcher }

// Close stops accepting ingests, waits for background merges, and
// releases the published generation — its file mappings, if it was
// opened from disk, close once the last in-flight query releases its
// pin. The engine (and any strings or doc sets it returned) must not be
// used afterwards. A second Close is a no-op.
func (e *Engine) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	e.mu.Unlock()
	e.merges.Wait()
	e.release(e.cur.Load())
	return nil
}

// search runs one index probe and folds its block-max skip counters into
// the engine totals.
func (e *Engine) search(s *index.Searcher, tokens []string, k int) []index.Hit {
	hits, st := s.SearchStats(tokens, k)
	e.probeBlocksTotal.Add(st.BlocksTotal)
	e.probeBlocksSkipped.Add(st.BlocksSkipped)
	return hits
}

// builder returns a model builder wired to g's searcher — corpus
// statistics and PMI² doc sets — and the engine's table-view cache.
func (e *Engine) builder(g *generation) *core.Builder {
	return &core.Builder{Params: e.Opts.Params, Stats: g.searcher, PMI: g.searcher, Views: e.views}
}

// CacheStats is a point-in-time snapshot of one cache's cumulative
// hit/miss counters.
type CacheStats struct {
	Hits, Misses uint64
}

// HitRate returns Hits/(Hits+Misses), or 0 before the first lookup.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// EngineCacheStats snapshots the one cross-query cache an engine uses:
// analyzed table views and the interner they share. The serving daemon's
// /metrics endpoint exports these. The cache is engine-lifetime: views
// are retained across every ingest and merge swap, so its counters are
// totals since the engine opened.
type EngineCacheStats struct {
	Views CacheStats
	// ViewEntries is the number of cached table views and InternedStrings
	// the size of the symbol table they share. Nothing evicts either, so
	// both only grow: by the tables and the vocabulary the engine has
	// analyzed.
	ViewEntries     int
	InternedStrings int
	// PairSims, DocSets and NormCells are always zero: pair similarities
	// are computed per query, PMI² doc sets are read straight from the
	// searcher, and probe 2 reads a sampled cell's tokens off its view's
	// interned key, so no cache serves any of them. The fields survive
	// only because the benchmark's traced pass (bench/layers.go) reads
	// them, and the benchmark is edited only in PRs of its own.
	PairSims  CacheStats
	DocSets   CacheStats
	NormCells CacheStats
}

// CacheStats snapshots the engine's cross-query cache counters. Safe for
// concurrent use.
func (e *Engine) CacheStats() EngineCacheStats {
	var st EngineCacheStats
	st.Views.Hits, st.Views.Misses = e.views.Stats()
	st.ViewEntries, st.InternedStrings = e.views.Len(), e.views.Interner().Len()
	return st
}

// PlanStats is a point-in-time snapshot of the probe-pruning counters.
// Every counter is cumulative over the engine's lifetime.
type PlanStats struct {
	// CostError and Calibrated are always zero and false: the engine has
	// no cost model. They are kept only because bench/layers.go reads
	// them, until ROADMAP item 10.
	CostError  float64
	Calibrated bool
	// ProbeBlocksSkipped / ProbeBlocksTotal count posting blocks the
	// block-max skip pruned vs considered across every index probe.
	ProbeBlocksSkipped uint64
	ProbeBlocksTotal   uint64
	// ProbeShardsPruned is always zero: a probe scores every involved
	// shard, so no shard is ever pruned. The field survives only because
	// the benchmark's traced pass (bench/layers.go) reads it, and the
	// benchmark is edited only in PRs of its own.
	ProbeShardsPruned uint64
}

// PlanStats snapshots the probe counters. Safe for concurrent use.
func (e *Engine) PlanStats() PlanStats {
	return PlanStats{
		ProbeBlocksSkipped: uint64(e.probeBlocksSkipped.Load()),
		ProbeBlocksTotal:   uint64(e.probeBlocksTotal.Load()),
	}
}

// sampleRows draws take distinct row indices from [0, rows) with a sparse
// partial Fisher–Yates: only the displaced slots of the virtual identity
// permutation are materialized, so the cost is O(take) draws and memory
// instead of the O(rows) array a full rng.Perm would allocate. The draw
// sequence deliberately differs from rng.Perm's (take Intn calls instead
// of rows), so sampled rows changed once when this replaced Perm — the
// sample stays deterministic per query seed. The indices are written over
// out and the slots kept in displaced, both reused across calls.
func sampleRows(rng *rand.Rand, rows, take int, out []int, displaced map[int]int) []int {
	out = slicex.Grow(out, take)
	clear(displaced)
	for i := 0; i < take; i++ {
		j := i + rng.Intn(rows-i)
		vj, ok := displaced[j]
		if !ok {
			vj = j
		}
		vi, ok := displaced[i]
		if !ok {
			vi = i
		}
		out[i] = vj
		displaced[j] = vi
	}
	return out
}

// readTables resolves probe hits to their tables by doc number.
func (g *generation) readTables(hits []index.Hit) []*wtable.Table {
	out := make([]*wtable.Table, len(hits))
	for i, h := range hits {
		out[i] = g.tables[h.Doc]
	}
	return out
}
