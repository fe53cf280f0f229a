package core

import (
	"slices"

	"wwt/internal/graph"
	"wwt/internal/slicex"
)

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

// countSharedCells fills s.counts with the number of shared cells |A∩B|
// of every cross-table column pair of the edge pass, and s.colCells with
// the number of distinct cells |A| of every column. The counts are laid
// out per table pair in s.pairs order, each pair's grid row-major over
// (c1, c2) from its off, so the buffer holds exactly Σ n₁·n₂ entries —
// the grid the pass walks, never same-table cells.
//
// It lists one cellID<<32 | global column entry per body cell of every
// view and sorts them; compacting the sorted list leaves each column's
// distinct cells once, so each run of equal IDs is one cell, and it
// counts once for every cross-table column pair in the run. Sorting the
// ~1 000 entries of a build and touching only the pairs that share a cell
// costs less than merging the sets of every column pair. Everything lives
// in the scratch, so a warm pass allocates nothing.
func (m *Model) countSharedCells(s *BuildScratch, size int) {
	n := len(m.Views)
	colOff := s.colOff
	s.colTab = slicex.Grow(s.colTab, colOff[n])
	colTab := s.colTab
	cells := s.cells[:0]
	for t, v := range m.Views {
		for c := 0; c < v.NumCols; c++ {
			g := colOff[t] + c
			colTab[g] = int32(t)
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
	s.colCells = slicex.GrowClear(s.colCells, colOff[n])
	for _, e := range cells {
		s.colCells[uint32(e)]++
	}

	s.counts = slicex.GrowClear(s.counts, size)
	counts, pairs := s.counts, s.pairs
	for i := 0; i < len(cells); {
		j := i + 1
		for j < len(cells) && cells[j]>>32 == cells[i]>>32 {
			j++
		}
		// Within a run the columns ascend, so ta < tb for every
		// cross-table pair.
		for a := i; a < j-1; a++ {
			ga := int(uint32(cells[a]))
			ta := int(colTab[ga])
			ca := ga - colOff[ta]
			for b := a + 1; b < j; b++ {
				gb := int(uint32(cells[b]))
				tb := int(colTab[gb])
				if tb == ta {
					continue
				}
				n2 := colOff[tb+1] - colOff[tb]
				counts[pairs[pairIndex(n, ta, tb)].off+ca*n2+gb-colOff[tb]]++
			}
		}
		i = j
	}
}

// computePairSims evaluates the full column-similarity grid between views
// a and b from inter, their row-major (c1, c2) grid of shared-cell counts,
// and size1/size2, the distinct-cell counts of their columns; it keeps the
// pairs at or above p.MinNeighborSim in (c1, c2) order, and solves the
// blended one-one max-matching that marks the surviving pairs.
// The Jaccard is inter / (|A|+|B|−inter), the same integers and expression
// a merge of the two sorted sets computes, and 0 when they share nothing.
// Orientation matters for tie-breaking inside the assignment solve, so
// callers must present (a, b) in the orientation they will consume the
// result in.
//
// Everything runs in one worker's slot sc: the survivors are appended to
// its arena sc.sims and returned as that tail of it (nil when none
// survive), and the matching is solved in its workspace, so a compute
// through a warm slot allocates nothing. The result is valid until the
// arena is reset; a later append may move the arena, so callers that keep
// several results record their ranges in it, not the slices.
func computePairSims(a, b *TableView, inter, size1, size2 []int32, p Params, sc *workerScratch) []colPairSim {
	n1, n2 := a.NumCols, b.NumCols
	start := len(sc.sims)
	all := sc.sims
	for c1 := 0; c1 < n1; c1++ {
		len1 := int(size1[c1])
		for c2, k := range inter[c1*n2 : (c1+1)*n2] {
			var s float64
			if k > 0 {
				s = float64(k) / float64(len1+int(size2[c2])-int(k))
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
