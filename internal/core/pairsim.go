package core

import "wwt/internal/graph"

// colPairSim is one cross-view column pair whose content similarity
// cleared MinNeighborSim: c1 indexes the first view of the pair, c2 the
// second, sim is the raw content Jaccard, and matched marks survival of
// the blended content+header one-one max-matching between the two views
// (§3.3, "Max-matching Edges").
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
// Everything runs in one worker's slot sc: the survivors are appended to
// its arena sc.sims and returned as that tail of it (nil when none
// survive), and the matching is solved in its workspace, so a compute
// through a warm slot allocates nothing. The result is valid until the
// arena is reset; a later append may move the arena, so callers that keep
// several results record their ranges in it, not the slices.
func computePairSims(a, b *TableView, p Params, sc *workerScratch) []colPairSim {
	n1, n2 := a.NumCols, b.NumCols
	start := len(sc.sims)
	all := sc.sims
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
			all = append(all, colPairSim{c1: int32(c1), c2: int32(c2), sim: s})
		}
	}
	sc.sims = all
	out := all[start:]
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
	return out
}
