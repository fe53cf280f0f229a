package core

import (
	"slices"

	"wwt/internal/graph"
	"wwt/internal/slicex"
)

// countSharedCells fills s.counts with the number of shared cells |A∩B|
// of every cross-table column pair of the edge pass, and s.colCells with
// the number of distinct cells |A| of every column. Global column g owns
// one row over the columns of the tables after its own: the count of
// (g, g2) is counts[rowOff[g]+g2] for every g2 >= colEnd[g], so the buffer
// holds exactly Σ n₁·n₂ entries — never same-table cells.
//
// It lists one cellID<<32 | global column entry per body cell of every
// view and sorts them; compacting the sorted list leaves each column's
// distinct cells once, so each run of equal IDs is one cell, and it
// counts once for every cross-table column pair in the run. Sorting the
// ~1 000 entries of a build and touching only the pairs that share a cell
// costs less than merging the sets of every column pair. Everything lives
// in the scratch, so a warm pass allocates nothing.
func (m *Model) countSharedCells(s *BuildScratch) {
	colOff := s.colOff
	total := colOff[len(m.Views)]
	s.rowOff = slicex.Grow(s.rowOff, total)
	s.colEnd = slicex.Grow(s.colEnd, total)
	cells, size := s.cells[:0], 0
	for t, v := range m.Views {
		end := colOff[t+1]
		for c := 0; c < v.NumCols; c++ {
			g := colOff[t] + c
			s.colEnd[g], s.rowOff[g] = end, size-end
			size += total - end
			for i := c; i < len(v.cells); i += v.NumCols {
				if id := v.cells[i]; id != NoID {
					cells = append(cells, uint64(id)<<32|uint64(g))
				}
			}
		}
	}
	slices.Sort(cells)
	cells = slices.Compact(cells)
	s.cells = cells
	s.colCells = slicex.GrowClear(s.colCells, total)
	for _, e := range cells {
		s.colCells[uint32(e)]++
	}

	s.counts = slicex.GrowClear(s.counts, size)
	counts, rowOff, colEnd := s.counts, s.rowOff, s.colEnd
	for i := 0; i < len(cells); {
		j := i + 1
		for j < len(cells) && cells[j]>>32 == cells[i]>>32 {
			j++
		}
		// Within a run the columns ascend, so each cross-table pair is
		// counted in the row of its first column.
		for a := i; a < j-1; a++ {
			ga := uint32(cells[a])
			off, end := rowOff[ga], colEnd[ga]
			for _, e := range cells[a+1 : j] {
				if gb := int(uint32(e)); gb >= end {
					counts[off+gb]++
				}
			}
		}
		i = j
	}
}

// matchPair marks the survivors es of views a and b, in (c1, c2) order,
// that the blended content+header one-one max-matching keeps (§3.3,
// "Max-matching Edges"); column pairs below the neighbor threshold are
// zero-weight cells of the grid. When no two survivors share a column and
// graph.DisjointMatched holds for the bounds of their weights, every one
// is matched with no HeaderSim and no solve; otherwise the matching is
// solved in s's workspace.
func matchPair(a, b *TableView, es []rawEdge, p Params, s *BuildScratch) {
	if disjointMatched(a.NumCols, b.NumCols, es, p) {
		for i := range es {
			es[i].matched = true
		}
		return
	}
	cells := s.match[:0]
	for _, e := range es {
		cells = append(cells, graph.Cell{L: int32(e.c1), R: int32(e.c2), W: p.MatchContentWeight*e.sim +
			p.MatchHeaderWeight*HeaderSim(a, b, e.c1, e.c2)})
	}
	s.match = cells
	for i, m := range graph.MatchCells(a.NumCols, b.NumCols, cells, &s.ws) {
		es[i].matched = m
	}
}

// disjointMatched reports whether MatchCells would mark every survivor of
// es without solving. A header weight of at least 0 only adds a term in
// [0, MatchHeaderWeight] (HeaderSim is a Jaccard), so the content terms
// bound every cell's weight from below and, plus that weight, from above.
func disjointMatched(n1, n2 int, es []rawEdge, p Params) bool {
	if !(p.MatchHeaderWeight >= 0) {
		return false
	}
	minSim, maxSim := es[0].sim, es[0].sim
	for _, e := range es[1:] {
		minSim, maxSim = min(minSim, e.sim), max(maxSim, e.sim)
	}
	if !graph.DisjointMatched(n1, n2, len(es), p.MatchContentWeight*minSim,
		p.MatchContentWeight*maxSim+p.MatchHeaderWeight) {
		return false
	}
	for i, e := range es {
		for _, f := range es[i+1:] {
			if e.c1 == f.c1 || e.c2 == f.c2 {
				return false
			}
		}
	}
	return true
}
