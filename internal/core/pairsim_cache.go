package core

import (
	"wwt/internal/graph"
	"wwt/internal/lru"
)

// colPairSim is one cross-view column pair whose content similarity
// cleared MinNeighborSim: c1 indexes the first view of the pair, c2 the
// second, sim is the raw content Jaccard, and matched marks survival of
// the blended content+header one-one max-matching between the two views
// (§3.3, "Max-matching Edges"). Everything here depends only on the view
// pair and the pair-affecting params — never on the query — which is what
// makes it cacheable across queries.
type colPairSim struct {
	c1, c2  int32
	sim     float64
	matched bool
}

// computePairSims evaluates the full column-similarity grid between views
// a and b, keeps the pairs at or above p.MinNeighborSim in (c1, c2) order,
// and solves the blended one-one max-matching that marks the surviving
// pairs. A size-ratio early-out skips the merge when even full containment
// (|small|/|large|) could not reach the threshold. Orientation matters for
// tie-breaking inside the assignment solve, so callers must present (a, b)
// in the orientation they will consume the result in.
//
// The survivors are staged and the matching solved in one worker's slot
// sc; the result is an exact-size copy owned by the caller (the only
// allocation of a miss through a warm slot), so it may enter a cache.
func computePairSims(a, b *TableView, p Params, sc *workerScratch) []colPairSim {
	n1, n2 := a.NumCols, b.NumCols
	out := sc.sims[:0]
	for c1 := 0; c1 < n1; c1++ {
		ids1 := a.ColCellIDs[c1]
		for c2 := 0; c2 < n2; c2++ {
			ids2 := b.ColCellIDs[c2]
			var s float64
			if len(ids1) > 0 && len(ids2) > 0 {
				lo, hi := len(ids1), len(ids2)
				if lo > hi {
					lo, hi = hi, lo
				}
				// Max achievable Jaccard is |small|/|large| (full
				// containment); division is monotone, so the bound is exact.
				if float64(lo)/float64(hi) < p.MinNeighborSim {
					continue
				}
				s = jaccardSortedIDs(ids1, ids2)
			}
			if s < p.MinNeighborSim {
				continue
			}
			out = append(out, colPairSim{c1: int32(c1), c2: int32(c2), sim: s})
		}
	}
	sc.sims = out
	if len(out) == 0 {
		return nil
	}
	// One-one matching over blended content+header similarity; pairs below
	// the neighbor threshold stay zero-weight cells, exactly like the
	// query-time path always built them.
	cells := sc.cells[:0]
	for _, e := range out {
		cells = append(cells, graph.Cell{L: e.c1, R: e.c2, W: p.MatchContentWeight*e.sim +
			p.MatchHeaderWeight*HeaderSim(a, b, int(e.c1), int(e.c2))})
	}
	sc.cells = cells
	for i, m := range graph.MatchCells(n1, n2, cells, &sc.ws) {
		out[i].matched = m
	}
	kept := make([]colPairSim, len(out))
	copy(kept, out)
	return kept
}

// PairSimCache is a bounded, concurrency-safe LRU over the per-table-pair
// column-similarity lists of computePairSims. Candidate sets overlap
// heavily across queries, and the similarity grid plus the max-matching
// solve depend only on the two views and the pair-affecting params
// (MinNeighborSim, MatchContentWeight, MatchHeaderWeight) — all fixed for
// the lifetime of an engine. Sharing a cache between builders whose
// pair-affecting params differ is a caller bug, as is mixing views from
// different interners (keying is by view identity, which ViewCache makes
// stable per table).
//
// Entries are keyed by the ordered view-ID pair as presented, not by a
// canonicalized pair: assignment tie-breaking depends on which view plays
// the left side, and keeping both orientations distinct pins each one
// hit-for-hit to what the uncached path computes. Cached slices are shared
// and read-only.
type PairSimCache struct {
	c *lru.Cache[pairSimKey, []colPairSim]
}

type pairSimKey struct{ a, b uint64 }

// DefaultPairSimCacheSize bounds the cache when NewPairSimCache is given a
// non-positive capacity. At the default probe width — ≈54 candidate tables
// after the second probe, ≈1 490 table pairs per query on the benchmark
// corpus — it holds the working set of about twenty distinct queries.
const DefaultPairSimCacheSize = 1 << 15

// NewPairSimCache returns an LRU of at most capacity view pairs.
func NewPairSimCache(capacity int) *PairSimCache {
	if capacity <= 0 {
		capacity = DefaultPairSimCacheSize
	}
	return &PairSimCache{c: lru.New[pairSimKey, []colPairSim](capacity)}
}

// pairs returns computePairSims(a, b, p), memoized on the (a, b) view-ID
// pair. A miss runs in the calling worker's slot sc; the Jaccard grid and
// the assignment solve run outside the cache lock (computePairSims is a
// pure function of (a, b, p), so racing duplicate computes are harmless),
// and the cache keeps the exact-size copy computePairSims returns, never
// the slot.
func (c *PairSimCache) pairs(a, b *TableView, p Params, sc *workerScratch) []colPairSim {
	return c.c.Get(pairSimKey{a.id, b.id}, func() []colPairSim {
		return computePairSims(a, b, p, sc)
	})
}

// Stats reports cumulative hit/miss counts.
func (c *PairSimCache) Stats() (hits, misses uint64) { return c.c.Stats() }

// Len returns the number of cached view pairs.
func (c *PairSimCache) Len() int { return c.c.Len() }
