package core

import (
	"slices"
	"strings"
	"sync"
)

// Interner assigns dense uint32 IDs to strings so that set operations on
// analyzed text (cell values, header tokens) become integer comparisons
// over sorted slices instead of map probes over strings. IDs are only
// meaningful within one interner: two TableViews may be compared (the
// edge pass's shared cells, HeaderSim, consolidation's cell matching)
// only when both were built against the same interner. ViewCache owns one
// for the engine's lifetime; Builder.Build creates a build-local one when
// it runs cacheless.
//
// Every interned string also gets its token set when it is first
// assigned an ID: the sorted IDs of its space-separated words, so a
// whole-cell key's set is the IDs of its normalized tokens and a lone
// token's set is its own ID. The set is a pure function of the string,
// written once and never changed. The interner also keeps each ID's
// string, sharing the map key's bytes, so a view can hand back a cell's
// normalized key without re-analyzing the cell.
//
// Interning is concurrency-safe (concurrent queries analyze views into
// one cache's interner) and append-only: the table — IDs and token sets
// alike — grows with the vocabulary of every table it has analyzed and is
// never evicted. Ingest and merge only ever add tables, so for
// engine-driven use it is bounded by the corpus; once tables can be
// deleted, the interner needs a bound of its own.
type Interner struct {
	mu  sync.RWMutex
	ids map[string]uint32
	// The token set of ID i is sets[setOff[i]:setOff[i+1]]. Appends only
	// ever write past every set already handed out, so a returned set
	// stays valid and unchanged after the lock is released.
	sets   []uint32
	setOff []uint32
	// strs[i] is the string of ID i.
	strs []string
}

// NewInterner returns an empty symbol table.
func NewInterner() *Interner {
	return &Interner{ids: make(map[string]uint32), setOff: []uint32{0}}
}

// Intern returns the stable ID of s, assigning the next free one (and
// recording its token set) on first sight.
func (in *Interner) Intern(s string) uint32 {
	in.mu.RLock()
	id, ok := in.ids[s]
	in.mu.RUnlock()
	if ok {
		return id
	}
	// A word holds no space, so this recursion is one level deep.
	var set []uint32
	if strings.IndexByte(s, ' ') >= 0 {
		for w := range strings.SplitSeq(s, " ") {
			set = append(set, in.Intern(w))
		}
		slices.Sort(set)
		set = slices.Compact(set)
	}
	in.mu.Lock()
	id, ok = in.ids[s]
	if !ok {
		id = uint32(len(in.ids))
		in.ids[s] = id
		in.strs = append(in.strs, s)
		if set == nil {
			in.sets = append(in.sets, id)
		} else {
			in.sets = append(in.sets, set...)
		}
		in.setOff = append(in.setOff, uint32(len(in.sets)))
	}
	in.mu.Unlock()
	return id
}

// NoID is the ID Lookup reports for a string the interner has never
// seen, and the ID a view gives a body cell without content words.
// Interning assigns IDs densely from zero, so no string ever gets it, and
// a search for it in a view's sorted ID set always misses.
const NoID = ^uint32(0)

// Lookup returns the ID of s without interning it: NoID when s has never
// been interned. Query tokens are resolved this way, so arbitrary query
// text cannot grow the engine-lifetime symbol table.
func (in *Interner) Lookup(s string) uint32 {
	in.mu.RLock()
	id, ok := in.ids[s]
	in.mu.RUnlock()
	if !ok {
		return NoID
	}
	return id
}

// tokens returns the token set of an interned ID (nil for NoID). The
// slice is shared and read-only.
func (in *Interner) tokens(id uint32) []uint32 {
	if id == NoID {
		return nil
	}
	in.mu.RLock()
	lo, hi := in.setOff[id], in.setOff[id+1]
	set := in.sets[lo:hi:hi]
	in.mu.RUnlock()
	return set
}

// str returns the string of an interned ID ("" for NoID).
func (in *Interner) str(id uint32) string {
	if id == NoID {
		return ""
	}
	in.mu.RLock()
	s := in.strs[id]
	in.mu.RUnlock()
	return s
}

// Len returns the number of interned strings.
func (in *Interner) Len() int {
	in.mu.RLock()
	defer in.mu.RUnlock()
	return len(in.ids)
}

// sortedIDSet sorts ids in place, removes duplicates, and returns the
// shrunk slice — the canonical set representation the sorted-slice
// intersections below operate on.
func sortedIDSet(ids []uint32) []uint32 {
	slices.Sort(ids)
	out := slices.Compact(ids)
	// Cached views retain these sets for the engine's lifetime; when dedup
	// shrank the set to under half the backing array (heavily duplicated
	// columns), reallocate tight so the oversized array can be freed.
	if len(out)*2 < cap(ids) {
		out = slices.Clone(out)
	}
	return out
}

// JaccardIDs is the Jaccard similarity of two sorted unique ID slices:
// |a∩b| / |a∪b|, allocation-free, and 0 when either is empty.
func JaccardIDs(a, b []uint32) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	inter := 0
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			inter++
			i++
			j++
		}
	}
	return float64(inter) / float64(len(a)+len(b)-inter)
}
