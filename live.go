package wwt

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"

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
// A swap migrates nothing: a generation is only its searcher and its
// tables by doc number, and the new generation's slice holds the very
// table pointers the old one did — an ingest appends the batch it just
// wrote, a merge concatenates the in-memory tables of the segments it
// replaced, in the order it wrote them.
// Corpus statistics enter a table's analysis only through the header
// weights each model build computes under its pinned generation, and PMI²
// doc sets are read from that generation's searcher directly. Everything
// engine-lifetime — the table-view cache and its interner, the arena pool
// and the probe counters — carries across swaps untouched, so only the
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
// one with wwt-index. Each segment's tables are read once; a segment
// whose table store disagrees with its doc table in count or ID order,
// or a table ID held by two segments, fails the open. opts may be nil for
// DefaultOptions.
func OpenLive(dir string, opts *Options) (*Engine, error) {
	s, m, err := index.OpenSnapshot(dir)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("wwt: no flat index in %s (rebuild it with wwt-index): %w", dir, err)
	}
	if err != nil {
		return nil, err
	}
	segs, ids, err := readSegments(dir, m, s)
	if err != nil {
		s.Close()
		return nil, err
	}
	e := newEngine(newGeneration(s, slices.Concat(segs...)), opts)
	e.dir, e.manifest, e.nextSeq = dir, m, nextSegmentSeq(dir, m)
	e.segTables, e.ids = segs, ids
	return e, nil
}

// readSegments reads the tables of every manifest segment in canonical
// order, checking each segment's store against the doc table s opened
// for it, and returns them per segment with the set of their IDs.
func readSegments(dir string, m index.Manifest, s *index.Searcher) ([][]*wtable.Table, map[string]bool, error) {
	segs := make([][]*wtable.Table, len(m.Segments))
	ids := make(map[string]bool, s.Len())
	lens, doc := s.SegmentLens(), int32(0)
	for i, entry := range m.Segments {
		seg, err := index.ReadTables(filepath.Join(dir, entry))
		if err != nil {
			return nil, nil, err
		}
		if n := lens[i]; len(seg) != n {
			return nil, nil, fmt.Errorf("wwt: segment %s: %s holds %d tables, %s %d; rebuild the directory with wwt-index",
				entry, index.TablesFileName, len(seg), index.DocsFileName, n)
		}
		for _, t := range seg {
			if id := s.IDOf(doc); id != t.ID {
				return nil, nil, fmt.Errorf("wwt: segment %s: %s lists table %q where %s lists %q; rebuild the directory with wwt-index",
					entry, index.TablesFileName, t.ID, index.DocsFileName, id)
			}
			if ids[t.ID] {
				return nil, nil, fmt.Errorf("wwt: segment %s: duplicate table ID %q", entry, t.ID)
			}
			ids[t.ID] = true
			doc++
		}
		segs[i] = seg
	}
	return segs, ids, nil
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

// IngestCounts reports cumulative failed ingests and completed merges.
func (e *Engine) IngestCounts() (errs, merges uint64) {
	return e.ingestErrors.Load(), e.mergesDone.Load()
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
	for _, t := range tables {
		if t != nil && e.ids[t.ID] {
			return LiveInfo{}, fmt.Errorf("%w: %q", ErrTableExists, t.ID)
		}
	}
	entry := index.SegmentDirName(e.nextSeq)
	if err := index.WriteDir(filepath.Join(e.dir, entry), tables, 1); err != nil {
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
	e.segTables = append(e.segTables, slices.Clone(tables))
	for _, t := range tables {
		e.ids[t.ID] = true
	}
	if err := e.publishLocked(); err != nil {
		return LiveInfo{}, err
	}
	e.maybeMergeLocked()
	return e.Info(), nil
}

// publishLocked opens the just-committed manifest as a new generation
// over the committed segments' tables and swaps it in. The tables are
// the very pointers earlier generations held, so every cached view
// carries over.
func (e *Engine) publishLocked() error {
	s, _, err := index.OpenSnapshot(e.dir)
	if err != nil {
		return err
	}
	old := e.cur.Load()
	e.cur.Store(newGeneration(s, slices.Concat(e.segTables...)))
	e.retired.Add(1)
	e.release(old)
	return nil
}

// maybeMergeLocked kicks the background merge goroutine when the policy
// finds a full tier. The merge re-checks under the lock, so spurious
// kicks are cheap.
func (e *Engine) maybeMergeLocked() {
	if _, docs := e.mergeableLocked(); index.PlanMerge(docs) == nil {
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
// entry except the base index) by manifest position, with their doc
// counts.
func (e *Engine) mergeableLocked() ([]int, []int) {
	var segs, docs []int
	for i, entry := range e.manifest.Segments {
		if entry == "." {
			continue
		}
		segs = append(segs, i)
		docs = append(docs, len(e.segTables[i]))
	}
	return segs, docs
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
	segs, docs := e.mergeableLocked()
	picks := index.PlanMerge(docs)
	if picks == nil {
		return false, nil
	}
	// The merged segment is the picked segments' tables in manifest
	// order, written from memory.
	picked := make(map[int]bool, len(picks))
	var merged []*wtable.Table
	for _, i := range picks {
		picked[segs[i]] = true
		merged = append(merged, e.segTables[segs[i]]...)
	}
	entry := index.SegmentDirName(e.nextSeq)
	if err := index.WriteDir(filepath.Join(e.dir, entry), merged, 1); err != nil {
		return false, err
	}
	e.nextSeq++
	m := e.manifest
	m.Segments = nil
	var segTables [][]*wtable.Table
	for i, name := range e.manifest.Segments {
		switch {
		case !picked[i]:
			m.Segments, segTables = append(m.Segments, name), append(segTables, e.segTables[i])
		case segs[picks[0]] == i:
			m.Segments, segTables = append(m.Segments, entry), append(segTables, merged)
		}
	}
	m.Generation++
	if err := index.WriteManifest(e.dir, m); err != nil {
		return false, err
	}
	inputs := e.manifest.Segments
	e.manifest, e.segTables = m, segTables
	if err := e.publishLocked(); err != nil {
		return false, err
	}
	e.mergesDone.Add(1)
	for i := range picked {
		os.RemoveAll(filepath.Join(e.dir, inputs[i]))
	}
	return true, nil
}

// WaitMerges blocks until no background merge is running. It returns at
// once on an engine that never ingests.
func (e *Engine) WaitMerges() { e.merges.Wait() }
