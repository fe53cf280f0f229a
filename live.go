package wwt

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"wwt/internal/index"
	"wwt/internal/wtable"
)

// Live serving: an Engine opened by OpenLive serves a segmented index
// directory that grows at runtime. IngestTables freezes each batch into a
// new immutable segment, commits the manifest atomically, and hot-swaps a
// fresh generation over the new manifest snapshot; a size-tiered
// background merge compacts accumulated small segments. Queries pin the
// generation they start on (see Engine), so a swap never invalidates an
// in-flight query — the retired generation's mappings close only when its
// last query releases it.
//
// A swap migrates nothing: a generation is only its searcher and store,
// and the new store holds the very table pointers the old one did.
// Corpus statistics enter a table's analysis only through the header
// weights each model build computes under its pinned generation, and PMI²
// doc sets are read from that generation's searcher directly. Everything
// engine-lifetime — the table-view cache and its interner, the
// normalization cache, the cost model's calibration, the arena pool and
// the probe counters — carries across swaps untouched, so only the
// ingested tables are analyzed after a swap.

// LiveEngine is the name of the live wrapper Engine absorbed. It survives
// as an alias only because the benchmark's traced pass (bench/layers.go)
// spells it, and the benchmark is edited only in PRs of its own.
type LiveEngine = Engine

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
// index fails with an error wrapping fs.ErrNotExist that says to build
// one with wwt-index. opts may be nil for DefaultOptions.
func OpenLive(dir string, opts *Options) (*Engine, error) {
	s, m, err := index.OpenSnapshot(dir)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("wwt: no flat index in %s (rebuild it with wwt-index): %w", dir, err)
	}
	if err != nil {
		return nil, err
	}
	st, err := unionStore(dir, m)
	if err != nil {
		s.Close()
		return nil, err
	}
	e := NewEngineFrom(s, st, opts)
	e.dir, e.manifest, e.nextSeq = dir, m, nextSegmentSeq(dir, m)
	return e, nil
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

// Info snapshots the serving generation.
func (e *Engine) Info() LiveInfo {
	s := e.cur.Load().searcher
	return LiveInfo{Generation: s.Generation(), Segments: s.Segments(), Shards: s.Shards(), Docs: s.Len(),
		Mmapped: s.Mmapped(), MergeErrors: e.mergeErrors.Load()}
}

// GenerationCounts reports swap accounting: generations retired by a
// swap, and generations fully reclaimed (closed after the last in-flight
// query released its pin — includes the final generation after Close).
func (e *Engine) GenerationCounts() (retired, reclaimed uint64) {
	return e.retired.Load(), e.reclaimed.Load()
}

// IngestCounts reports cumulative ingest/merge activity.
func (e *Engine) IngestCounts() (ingests, tables, errs, merges uint64) {
	return e.ingests.Load(), e.ingestedTables.Load(), e.ingestErrors.Load(), e.mergesDone.Load()
}

// ErrTableExists is wrapped by the error IngestTables returns when a
// table ID of the batch is already in the corpus. An ID repeated inside
// one batch is a different error: the batch itself is malformed.
var ErrTableExists = errors.New("wwt: ingest: table ID already indexed")

// IngestTables freezes the batch into a new immutable segment, commits
// the manifest, and atomically publishes the new generation — queries
// started before the swap drain on the old one. Table IDs must be new to
// the corpus (ErrTableExists) and unique within the batch. Ingests
// serialize with each other and with merges; queries are never blocked.
// Returns the published generation's snapshot info.
// An engine not opened by OpenLive has no directory to write segments to
// and refuses every ingest.
func (e *Engine) IngestTables(tables []*wtable.Table) (LiveInfo, error) {
	info, err := e.ingestTables(tables)
	if err != nil {
		e.ingestErrors.Add(1)
	}
	return info, err
}

func (e *Engine) ingestTables(tables []*wtable.Table) (LiveInfo, error) {
	if e.dir == "" {
		return LiveInfo{}, errors.New("wwt: ingest refused: the engine has no index directory to write segments to (only an engine from OpenLive ingests)")
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return LiveInfo{}, errors.New("wwt: live engine is closed")
	}
	if len(tables) == 0 {
		return LiveInfo{}, errors.New("wwt: ingest of an empty table batch")
	}
	cur := e.cur.Load()
	w := index.NewSegmentWriter()
	for _, t := range tables {
		if t != nil {
			if _, dup := cur.store.Get(t.ID); dup {
				return LiveInfo{}, fmt.Errorf("%w: %q", ErrTableExists, t.ID)
			}
		}
		if err := w.Add(t); err != nil {
			return LiveInfo{}, err
		}
	}
	entry := index.SegmentDirName(e.nextSeq)
	if err := w.Flush(filepath.Join(e.dir, entry)); err != nil {
		return LiveInfo{}, err
	}
	e.nextSeq++
	m := e.manifest
	m.Segments = append(append([]string{}, m.Segments...), entry)
	m.Generation++
	if err := index.WriteManifest(e.dir, m); err != nil {
		return LiveInfo{}, err
	}
	e.manifest = m
	if err := e.publishLocked(tables); err != nil {
		return LiveInfo{}, err
	}
	e.ingests.Add(1)
	e.ingestedTables.Add(uint64(len(tables)))
	e.maybeMergeLocked()
	return e.Info(), nil
}

// publishLocked opens the just-committed manifest as a new generation
// and swaps it in. added lists tables new in this generation (nil when
// the table set is unchanged, e.g. a merge — the store is then shared
// with the old generation).
func (e *Engine) publishLocked(added []*wtable.Table) error {
	old := e.cur.Load()
	s, _, err := index.OpenSnapshot(e.dir)
	if err != nil {
		return err
	}
	st := old.store
	if added != nil {
		if st, err = old.store.With(added); err != nil {
			s.Close()
			return err
		}
	}
	e.cur.Store(newGeneration(s, st))
	e.retired.Add(1)
	e.release(old)
	return nil
}

// maybeMergeLocked kicks the background merge goroutine when the policy
// finds a full tier. The merge re-checks under the lock, so spurious
// kicks are cheap.
func (e *Engine) maybeMergeLocked() {
	if _, docs := e.mergeableLocked(); index.PlanMerge(docs, e.policy) == nil {
		return
	}
	e.merges.Add(1)
	go func() {
		defer e.merges.Done()
		for e.mergeOnce() {
		}
	}()
}

// mergeableLocked lists the merge-eligible segments (every manifest
// entry except the base index) with their doc counts.
func (e *Engine) mergeableLocked() ([]string, []int) {
	lens := e.cur.Load().searcher.SegmentLens()
	var names []string
	var docs []int
	for i, entry := range e.manifest.Segments {
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
func (e *Engine) mergeOnce() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	merged, err := e.mergeLocked()
	if err != nil {
		e.mergeErrors.Add(1)
	}
	return merged
}

// mergeLocked compacts one full tier into a new segment and publishes the
// swap. Inputs are immutable — the merged segment is written beside them,
// the manifest commit replaces them at the first input's position, and the
// input directories are unlinked only after the swap (generations still
// mapping them keep the inodes alive).
func (e *Engine) mergeLocked() (bool, error) {
	if e.closed {
		return false, nil
	}
	names, docs := e.mergeableLocked()
	picks := index.PlanMerge(docs, e.policy)
	if picks == nil {
		return false, nil
	}
	picked := make(map[string]bool, len(picks))
	srcDirs := make([]string, 0, len(picks))
	for _, i := range picks {
		picked[names[i]] = true
		srcDirs = append(srcDirs, filepath.Join(e.dir, names[i]))
	}
	entry := index.SegmentDirName(e.nextSeq)
	if _, err := index.MergeSegments(filepath.Join(e.dir, entry), srcDirs); err != nil {
		return false, err
	}
	e.nextSeq++
	m := e.manifest
	m.Segments = nil
	inserted := false
	for _, s := range e.manifest.Segments {
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
	if err := index.WriteManifest(e.dir, m); err != nil {
		return false, err
	}
	e.manifest = m
	if err := e.publishLocked(nil); err != nil {
		return false, err
	}
	e.mergesDone.Add(1)
	for n := range picked {
		os.RemoveAll(filepath.Join(e.dir, n))
	}
	return true, nil
}

// WaitMerges blocks until no background merge is running. It returns at
// once on an engine that never ingests.
func (e *Engine) WaitMerges() { e.merges.Wait() }
