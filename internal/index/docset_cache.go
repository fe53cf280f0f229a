package index

import (
	"sort"
	"strings"
	"sync"

	"wwt/internal/lru"
)

// DocSetCache is a bounded, concurrency-safe LRU cache in front of
// Searcher.DocSet. The PMI² feature probes the same H(Qℓ) set once per
// (query column × candidate column) and the same B(cell) set for every
// repeated cell value, within and across queries; caching the intersected
// sets turns those repeats into a map hit. Cached slices are shared —
// callers must treat them as read-only (every in-repo consumer only
// intersects them).
type DocSetCache struct {
	src *Searcher
	c   *lru.Cache[string, []int32]
}

// DefaultDocSetCacheSize bounds the cache when NewDocSetCache is given a
// non-positive capacity.
const DefaultDocSetCacheSize = 8192

// NewDocSetCache wraps a searcher's doc sets with an LRU of at most
// capacity entries.
func NewDocSetCache(src *Searcher, capacity int) *DocSetCache {
	if capacity <= 0 {
		capacity = DefaultDocSetCacheSize
	}
	return &DocSetCache{src: src, c: lru.New[string, []int32](capacity)}
}

// DocSet returns src.DocSet(tokens, fields...), memoized on the
// deduplicated sorted token set plus the field mask. The intersection runs
// outside the cache lock (it can be expensive; DocSet is a pure function
// of the key, so racing duplicate computes are harmless).
func (c *DocSetCache) DocSet(tokens []string, fields ...Field) []int32 {
	key := docSetKey(tokens, fields)
	if v, ok := c.c.Cached(key); ok { // closure-free: warm hits allocate only the key
		return v
	}
	// Copy fields so the variadic slice doesn't escape through the closure:
	// capturing it directly would heap-allocate it at every call site,
	// including warm hits that never run compute.
	fs := append([]Field(nil), fields...)
	return c.c.Get(key, func() []int32 { return c.src.DocSet(tokens, fs...) })
}

// AdoptFrom migrates old's entries into c (a fresh cache of a new index
// generation) and then evicts exactly the ones the generation change
// staled — stale receives each key's token set and reports whether any of
// its tokens could have gained members. Entries are re-inserted in LRU
// order, preserving recency; surviving warm entries keep serving hits
// across the swap. Valid only for append-only generation changes (doc
// numbers of prior documents unchanged): a merge remaps doc numbers, so
// merge swaps start cold instead. Returns entries adopted and evicted.
func (c *DocSetCache) AdoptFrom(old *DocSetCache, stale func(tokens []string) bool) (adopted, evicted int) {
	old.c.Each(func(k string, v []int32) {
		c.c.Put(k, v)
		adopted++
	})
	evicted = c.c.EvictIf(func(k string) bool { return stale(docSetKeyTokens(k)) })
	return adopted, evicted
}

// Stats reports cumulative hit/miss counts.
func (c *DocSetCache) Stats() (hits, misses uint64) { return c.c.Stats() }

// Len returns the number of cached entries.
func (c *DocSetCache) Len() int { return c.c.Len() }

// keyScratch pools the sort buffer docSetKey uses, so key construction's
// only allocation is the key string itself.
var keyScratch = sync.Pool{New: func() any { return new(docSetKeyScratch) }}

type docSetKeyScratch struct {
	toks []string
}

// docSetKey canonicalizes (tokens, fields) into a cache key: unique tokens
// sorted and joined with an unlikely separator, prefixed by the field
// mask. One pass over a pooled sorted copy sizes the builder exactly, so
// the single allocation is the returned key — warm cache hits do no other
// allocation (pinned by TestDocSetCacheWarmHitAllocs).
func docSetKey(tokens []string, fields []Field) string {
	mask := 0
	for _, f := range fields {
		mask |= 1 << f
	}
	ks := keyScratch.Get().(*docSetKeyScratch)
	toks := append(ks.toks[:0], tokens...)
	sort.Strings(toks)
	size := 1
	for i, t := range toks {
		if i > 0 && t == toks[i-1] {
			continue
		}
		size += 1 + len(t)
	}
	var b strings.Builder
	b.Grow(size)
	b.WriteByte(byte('0' + mask))
	for i, t := range toks {
		if i > 0 && t == toks[i-1] {
			continue
		}
		b.WriteByte(0x1f)
		b.WriteString(t)
	}
	ks.toks = toks
	keyScratch.Put(ks)
	return b.String()
}

// docSetKeyTokens recovers the sorted unique token set from a docSetKey —
// the separator never occurs inside normalized tokens, so the split is
// exact. Generation migration uses it to test keys for staleness.
func docSetKeyTokens(key string) []string {
	if len(key) <= 1 {
		return nil
	}
	return strings.Split(key[1:], "\x1f")[1:]
}
