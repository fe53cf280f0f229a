package core

import (
	"sync"
	"sync/atomic"

	"wwt/internal/wtable"
)

// ViewCache memoizes TableView construction across queries, keyed by table
// identity (pointer). Candidate sets overlap heavily between queries, and
// a TableView depends only on the table text — never on corpus statistics
// or Params — so one cache serves an engine for its whole lifetime, across
// every generation swap: a table keeps its pointer from one generation's
// store to the next, so its view is analyzed once. Keying by pointer means a distinct table that merely reuses an ID can never be
// served a stale view; it misses and is analyzed fresh.
//
// Cached views are immutable after construction and safe to share between
// concurrent model builds. The cache is unbounded and pins its tables; an
// engine's cache is bounded by its corpus, because queries only ever map
// tables the store already holds (ingest and merge only add to it).
type ViewCache struct {
	// in is the cache's symbol table: every view built through the cache
	// interns into it, so any two cached views are mutually comparable:
	// by their cell IDs, their token sets and HeaderSim.
	in *Interner

	mu sync.RWMutex
	m  map[*wtable.Table]*TableView

	hits, misses atomic.Uint64
}

// NewViewCache returns an empty cache with its own interner.
func NewViewCache() *ViewCache {
	return &ViewCache{in: NewInterner(), m: make(map[*wtable.Table]*TableView)}
}

// Interner exposes the cache's shared symbol table (e.g. to build an
// ad-hoc view comparable against cached ones).
func (vc *ViewCache) Interner() *Interner { return vc.in }

// Stats reports cumulative hit/miss counts (a racing duplicate build
// counts as one miss per builder that computed).
func (vc *ViewCache) Stats() (hits, misses uint64) {
	return vc.hits.Load(), vc.misses.Load()
}

// Len returns the number of cached views.
func (vc *ViewCache) Len() int {
	vc.mu.RLock()
	defer vc.mu.RUnlock()
	return len(vc.m)
}

// view returns the cached view for t, building and storing it on a miss.
func (vc *ViewCache) view(t *wtable.Table) *TableView {
	vc.mu.RLock()
	v, ok := vc.m[t]
	vc.mu.RUnlock()
	if ok {
		vc.hits.Add(1)
		return v
	}
	vc.misses.Add(1)
	v = NewTableView(t, vc.in)
	vc.mu.Lock()
	// A racing builder may have inserted first; keep one winner so every
	// model in flight shares the same view instance.
	if prev, ok := vc.m[t]; ok {
		v = prev
	} else {
		vc.m[t] = v
	}
	vc.mu.Unlock()
	return v
}
