package wwt

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"wwt/internal/index"
	"wwt/internal/inference"
	"wwt/internal/plan"
	"wwt/internal/text"
	"wwt/internal/wtable"
)

// LiveEngine serves queries over a segmented index directory that grows
// at runtime: IngestTables freezes each batch into a new immutable
// segment, commits the manifest atomically, and hot-swaps a fresh
// generation (Engine over the new manifest snapshot) behind an
// atomic pointer. Queries pin the generation they start on with a
// refcount, so a swap never invalidates an in-flight query — the retired
// generation's mappings close only when its last query releases it. A
// size-tiered background merge compacts accumulated small segments.
//
// Per-generation state (views, pair similarities, doc sets) is rebuilt
// or migrated at each swap: the IDF-baking caches start fresh, while the
// doc-set cache adopts the previous generation's entries and evicts
// exactly the keys the new segment staled. The normalization cache and
// the planner's cost calibration are corpus-independent and shared
// across generations.
type LiveEngine struct {
	dir  string
	opts Options

	// mu serializes ingest, merge and generation publication. Queries
	// never take it — they only acquire/release the current generation.
	mu       sync.Mutex
	closed   bool
	manifest index.Manifest
	nextSeq  uint64

	cur atomic.Pointer[liveGen]

	// Cross-generation shared state: text normalization is
	// corpus-independent, and cost calibration should survive swaps.
	norm    *text.NormCache
	planner *plan.Estimator

	writeOpts index.WriteShardedOptions
	policy    index.MergePolicy
	merges    sync.WaitGroup

	ingests        atomic.Uint64
	ingestedTables atomic.Uint64
	ingestErrors   atomic.Uint64
	mergesDone     atomic.Uint64
	mergeErrors    atomic.Uint64 // background merges that failed (and were dropped)
	retired        atomic.Uint64 // generations replaced by a swap
	reclaimed      atomic.Uint64 // retired generations whose last ref released
}

// liveGen is one published generation: an immutable Engine plus the
// refcount that defers Close past the last in-flight query. The
// published pointer itself holds one reference; retiring the generation
// releases it.
type liveGen struct {
	eng       *Engine
	gen       uint64
	refs      atomic.Int64
	closeOnce sync.Once
	reclaimed *atomic.Uint64
}

func (g *liveGen) release() {
	if g.refs.Add(-1) == 0 {
		g.closeOnce.Do(func() {
			g.eng.Close()
			if g.reclaimed != nil {
				g.reclaimed.Add(1)
			}
		})
	}
}

// LiveInfo is a point-in-time snapshot of the serving generation.
type LiveInfo struct {
	Generation uint64
	Segments   int
	Shards     int
	Docs       int
	Mmapped    bool // every segment serves from file mappings
	// MergeErrors counts background merges that failed since open. A failed
	// merge publishes nothing — queries and ingests keep being served from
	// the generation it would have replaced — so this counter is the only
	// place "merge broken" differs from "nothing to merge".
	MergeErrors uint64
}

// OpenLive opens dir — a flat index directory, with or without a
// committed manifest — for live serving. A directory without a flat
// index fails with an error wrapping fs.ErrNotExist, so callers can fall
// back to the gob path. opts may be nil for DefaultOptions.
func OpenLive(dir string, opts *Options) (*LiveEngine, error) {
	o := DefaultOptions()
	if opts != nil {
		o = *opts
	}
	s, m, err := index.OpenSnapshot(dir)
	if err != nil {
		return nil, err
	}
	st, err := unionStore(dir, m)
	if err != nil {
		s.Close()
		return nil, err
	}
	le := &LiveEngine{
		dir:      dir,
		opts:     o,
		manifest: m,
		nextSeq:  nextSegmentSeq(dir, m),
		norm:     text.NewNormCache(0),
		planner:  plan.NewEstimator(len(inference.Algorithms), plan.DefaultAlpha),
	}
	le.cur.Store(le.newGen(s, st, m.Generation))
	return le, nil
}

// unionStore loads and unions the table stores of every manifest
// segment, in canonical order.
func unionStore(dir string, m index.Manifest) (*index.Store, error) {
	st := index.NewStore()
	for _, entry := range m.Segments {
		seg, err := index.LoadStore(filepath.Join(dir, entry, index.StoreFileName))
		if err != nil {
			return nil, err
		}
		for _, t := range seg.All() {
			if err := st.Add(t); err != nil {
				return nil, fmt.Errorf("wwt: segment %s: %w", entry, err)
			}
		}
	}
	return st, nil
}

// nextSegmentSeq picks the next unused segment sequence number: past the
// manifest's entries and past anything on disk (a crash between segment
// write and manifest commit leaves an orphan directory whose name must
// not be reused).
func nextSegmentSeq(dir string, m index.Manifest) uint64 {
	next := uint64(0)
	bump := func(name string) {
		var seq uint64
		if _, err := fmt.Sscanf(name, "seg-%d", &seq); err == nil && seq+1 > next {
			next = seq + 1
		}
	}
	for _, entry := range m.Segments {
		if entry != "." {
			bump(filepath.Base(entry))
		}
	}
	if des, err := os.ReadDir(filepath.Join(dir, index.SegmentsDirName)); err == nil {
		for _, de := range des {
			bump(de.Name())
		}
	}
	return next
}

// newGen wraps an opened snapshot as a publishable generation holding the
// published pointer's one reference. The normalization cache and the cost
// estimator are the live engine's, shared across generations.
func (le *LiveEngine) newGen(s *index.Searcher, st *index.Store, gen uint64) *liveGen {
	eng := NewEngineFrom(s, st, &le.opts)
	eng.norm = le.norm
	eng.planner = le.planner
	g := &liveGen{eng: eng, gen: gen, reclaimed: &le.reclaimed}
	g.refs.Store(1)
	return g
}

// acquire pins the current generation for one query. The validate-retry
// loop closes the race against a concurrent retire: incrementing after
// the swap-and-release could resurrect a generation whose refcount
// already hit zero, so the increment only counts if the generation is
// still the published one afterwards.
func (le *LiveEngine) acquire() *liveGen {
	for {
		g := le.cur.Load()
		g.refs.Add(1)
		if le.cur.Load() == g {
			return g
		}
		g.release()
	}
}

// AnswerBatchPlan answers a batch on the generation current at call
// time, which stays pinned (mappings open) until every member finishes —
// concurrent ingests swap later queries to newer generations without
// disturbing this one. Results remain valid after the generation is
// ultimately closed: answers are backed by the heap-resident table
// store, not the index mappings.
func (le *LiveEngine) AnswerBatchPlan(ctx context.Context, queries []Query, workers int, perQuery time.Duration, bp BatchPlan) *BatchResult {
	g := le.acquire()
	defer g.release()
	return g.eng.AnswerBatchPlan(ctx, queries, workers, perQuery, bp)
}

// Answer answers one query on the pinned current generation.
func (le *LiveEngine) Answer(q Query) (*Result, error) {
	g := le.acquire()
	defer g.release()
	return g.eng.Answer(q)
}

// CacheStats snapshots the current generation's cache counters.
func (le *LiveEngine) CacheStats() EngineCacheStats { return le.cur.Load().eng.CacheStats() }

// PlanStats snapshots the current generation's planner and probe
// counters (cost calibration is shared across generations).
func (le *LiveEngine) PlanStats() PlanStats { return le.cur.Load().eng.PlanStats() }

// EstimateCost predicts a query's wall time on the current generation.
func (le *LiveEngine) EstimateCost(q Query) time.Duration {
	g := le.acquire()
	defer g.release()
	return g.eng.EstimateCost(q)
}

// Planner returns the cost estimator shared by every generation.
func (le *LiveEngine) Planner() *plan.Estimator { return le.planner }

// Info snapshots the serving generation.
func (le *LiveEngine) Info() LiveInfo {
	g := le.cur.Load()
	s := g.eng.searcher
	return LiveInfo{Generation: g.gen, Segments: s.Segments(), Shards: s.Shards(), Docs: s.Len(),
		Mmapped: s.Mmapped(), MergeErrors: le.mergeErrors.Load()}
}

// GenerationCounts reports swap accounting: generations retired by a
// swap, and generations fully reclaimed (closed after the last in-flight
// query released its pin — includes the final generation after Close).
func (le *LiveEngine) GenerationCounts() (retired, reclaimed uint64) {
	return le.retired.Load(), le.reclaimed.Load()
}

// IngestCounts reports cumulative ingest/merge activity.
func (le *LiveEngine) IngestCounts() (ingests, tables, errs, merges uint64) {
	return le.ingests.Load(), le.ingestedTables.Load(), le.ingestErrors.Load(), le.mergesDone.Load()
}

// IngestTables freezes the batch into a new immutable segment, commits
// the manifest, and atomically publishes the new generation — queries
// started before the swap drain on the old one. Table IDs must be new to
// the corpus. Ingests serialize with each other and with merges; queries
// are never blocked. Returns the published generation's snapshot info.
func (le *LiveEngine) IngestTables(tables []*wtable.Table) (LiveInfo, error) {
	info, err := le.ingestTables(tables)
	if err != nil {
		le.ingestErrors.Add(1)
	}
	return info, err
}

func (le *LiveEngine) ingestTables(tables []*wtable.Table) (LiveInfo, error) {
	le.mu.Lock()
	defer le.mu.Unlock()
	if le.closed {
		return LiveInfo{}, errors.New("wwt: live engine is closed")
	}
	if len(tables) == 0 {
		return LiveInfo{}, errors.New("wwt: ingest of an empty table batch")
	}
	cur := le.cur.Load()
	w := index.NewSegmentWriter()
	for _, t := range tables {
		if t != nil {
			if _, dup := cur.eng.Store.Get(t.ID); dup {
				return LiveInfo{}, fmt.Errorf("wwt: ingest: table ID %q already indexed", t.ID)
			}
		}
		if err := w.Add(t); err != nil {
			return LiveInfo{}, err
		}
	}
	entry := index.SegmentDirName(le.nextSeq)
	if err := w.Flush(filepath.Join(le.dir, entry), le.writeOpts); err != nil {
		return LiveInfo{}, err
	}
	le.nextSeq++
	m := le.manifest
	m.Segments = append(append([]string{}, m.Segments...), entry)
	m.Generation++
	if err := index.WriteManifest(le.dir, m); err != nil {
		return LiveInfo{}, err
	}
	le.manifest = m
	if err := le.publishLocked(tables, true); err != nil {
		return LiveInfo{}, err
	}
	le.ingests.Add(1)
	le.ingestedTables.Add(uint64(len(tables)))
	le.maybeMergeLocked()
	return le.Info(), nil
}

// publishLocked opens the just-committed manifest as a new generation
// and swaps it in. added lists tables new in this generation (nil when
// the table set is unchanged, e.g. a merge — the store is then shared
// with the old generation). migrate adopts the old generation's warm
// doc-set entries, evicting exactly the keys whose tokens occur in the
// newest segment; valid only for append-only swaps, where prior global
// doc numbers are stable — merges remap doc numbers and start cold.
func (le *LiveEngine) publishLocked(added []*wtable.Table, migrate bool) error {
	old := le.cur.Load()
	s, m, err := index.OpenSnapshot(le.dir)
	if err != nil {
		return err
	}
	st := old.eng.Store
	if added != nil {
		st = index.NewStore()
		for _, t := range old.eng.Store.All() {
			if err := st.Add(t); err != nil {
				s.Close()
				return err
			}
		}
		for _, t := range added {
			if err := st.Add(t); err != nil {
				s.Close()
				return err
			}
		}
	}
	g := le.newGen(s, st, m.Generation)
	if migrate {
		last := s.Segments() - 1
		g.eng.docsets.AdoptFrom(old.eng.docsets, func(tokens []string) bool {
			for _, tok := range tokens {
				if s.SegmentHasTerm(last, tok) {
					return true
				}
			}
			return false
		})
	}
	le.cur.Store(g)
	le.retired.Add(1)
	old.release()
	return nil
}

// maybeMergeLocked kicks the background merge goroutine when the policy
// finds a full tier. The merge re-checks under the lock, so spurious
// kicks are cheap.
func (le *LiveEngine) maybeMergeLocked() {
	if _, docs := le.mergeableLocked(); index.PlanMerge(docs, le.policy) == nil {
		return
	}
	le.merges.Add(1)
	go func() {
		defer le.merges.Done()
		for le.mergeOnce() {
		}
	}()
}

// mergeableLocked lists the merge-eligible segments (every manifest
// entry except the base index) with their doc counts.
func (le *LiveEngine) mergeableLocked() ([]string, []int) {
	lens := le.cur.Load().eng.searcher.SegmentLens()
	var names []string
	var docs []int
	for i, entry := range le.manifest.Segments {
		if entry == "." {
			continue
		}
		names = append(names, entry)
		docs = append(docs, lens[i])
	}
	return names, docs
}

// mergeOnce runs one merge step under the lock and reports whether it
// merged (the caller loops until the policy is satisfied). A failed merge
// is counted and dropped: the inputs stay listed, nothing is published,
// and the next ingest re-kicks the merger.
func (le *LiveEngine) mergeOnce() bool {
	le.mu.Lock()
	defer le.mu.Unlock()
	merged, err := le.mergeLocked()
	if err != nil {
		le.mergeErrors.Add(1)
	}
	return merged
}

// mergeLocked compacts one full tier into a new segment and publishes the
// swap. Inputs are immutable — the merged segment is written beside them,
// the manifest commit replaces them at the first input's position, and the
// input directories are unlinked only after the swap (generations still
// mapping them keep the inodes alive).
func (le *LiveEngine) mergeLocked() (bool, error) {
	if le.closed {
		return false, nil
	}
	names, docs := le.mergeableLocked()
	picks := index.PlanMerge(docs, le.policy)
	if picks == nil {
		return false, nil
	}
	picked := make(map[string]bool, len(picks))
	srcDirs := make([]string, 0, len(picks))
	for _, i := range picks {
		picked[names[i]] = true
		srcDirs = append(srcDirs, filepath.Join(le.dir, names[i]))
	}
	entry := index.SegmentDirName(le.nextSeq)
	if _, err := index.MergeSegments(filepath.Join(le.dir, entry), srcDirs, le.writeOpts); err != nil {
		return false, err
	}
	le.nextSeq++
	m := le.manifest
	m.Segments = nil
	inserted := false
	for _, s := range le.manifest.Segments {
		if picked[s] {
			if !inserted {
				m.Segments = append(m.Segments, entry)
				inserted = true
			}
			continue
		}
		m.Segments = append(m.Segments, s)
	}
	m.Generation++
	if err := index.WriteManifest(le.dir, m); err != nil {
		return false, err
	}
	le.manifest = m
	if err := le.publishLocked(nil, false); err != nil {
		return false, err
	}
	le.mergesDone.Add(1)
	for n := range picked {
		os.RemoveAll(filepath.Join(le.dir, n))
	}
	return true, nil
}

// WaitMerges blocks until no background merge is running.
func (le *LiveEngine) WaitMerges() { le.merges.Wait() }

// Close stops accepting ingests, waits for background merges, and
// releases the published generation — its mappings close once the last
// in-flight query releases its pin. Queries must not be issued after
// Close.
func (le *LiveEngine) Close() error {
	le.mu.Lock()
	if le.closed {
		le.mu.Unlock()
		return nil
	}
	le.closed = true
	le.mu.Unlock()
	le.merges.Wait()
	le.cur.Load().release()
	return nil
}
