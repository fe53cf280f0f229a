package core

import (
	"wwt/internal/graph"
	"wwt/internal/slicex"
)

// cellSlot is one slot of the edge pass's open-addressed grouping table:
// a cell ID (NoID when the slot is empty) and its dense group number.
type cellSlot struct {
	id  uint32
	grp int32
}

// cellEntry is one distinct (cell, column) of the edge pass: the cell's
// group and the global column that holds it.
type cellEntry struct {
	grp, col int32
}

// groupBits returns the log2 size of the grouping table for a build of
// the given number of body cells: the least power of two ≥ 2× cells.
func groupBits(cells int) int {
	bits := 1
	for 1<<bits < 2*cells {
		bits++
	}
	return bits
}

// cellHash is the home slot of cell ID id in a grouping table of 1<<bits
// slots: the high bits of a Fibonacci multiplicative hash.
func cellHash(id uint32, bits int) uint32 { return id * 0x9e3779b1 >> (32 - bits) }

// countSharedCells fills s.counts with the number of shared cells |A∩B|
// of every cross-table column pair of the edge pass, and s.colCells with
// the number of distinct cells |A| of every column. Global column g owns
// one row over the columns of the tables after its own: the count of
// (g, g2) is counts[rowOff[g]+g2] for every g2 >= colEnd[g], so the buffer
// holds exactly Σ n₁·n₂ entries — never same-table cells.
//
// It groups the body cells of every view by cell ID (SQL's GROUP BY over
// (cell, column)) through an open-addressed table of a power of two ≥ 2×
// the build's body cells, keyed by ID with NoID as the empty key and a
// multiplicative hash that takes the product's high bits; a group number
// is dense, in order of first sight. The cells are generated table by
// table, column by column, so a group's columns arrive in ascending
// order, and a column's repeat of a cell is the group's last column: it
// is dropped there. A counting pass over the group numbers then lays each
// group's columns out contiguously in generation order, so each run is
// one cell's distinct columns, ascending — the runs a sorted, compacted
// (cell, column) list holds — and the cell counts once for every
// cross-table column pair in its run. Everything lives in the scratch, so
// a warm pass allocates nothing.
func (m *Model) countSharedCells(s *BuildScratch) {
	colOff := s.colOff
	total := colOff[len(m.Views)]
	s.rowOff = slicex.Grow(s.rowOff, total)
	s.colEnd = slicex.Grow(s.colEnd, total)
	s.colCells = slicex.GrowClear(s.colCells, total)
	cells := 0
	for _, v := range m.Views {
		cells += len(v.cells)
	}
	bits := groupBits(cells)
	s.slots = slicex.Grow(s.slots, 1<<bits)
	slots, mask := s.slots, uint32(len(s.slots)-1)
	for i := range slots {
		slots[i] = cellSlot{id: NoID}
	}
	// A build has at most one group and one entry per body cell.
	grpLast := slicex.Grow(s.grpLast, cells)[:0]
	grpLen := slicex.Grow(s.grpLen, cells)[:0]
	ents := slicex.Grow(s.ents, cells)[:0]
	colCells, size := s.colCells, 0
	for t, v := range m.Views {
		end := colOff[t+1]
		for c := 0; c < v.NumCols; c++ {
			g := colOff[t] + c
			s.colEnd[g], s.rowOff[g] = end, size-end
			size += total - end
			for i := c; i < len(v.cells); i += v.NumCols {
				id := v.cells[i]
				if id == NoID {
					continue
				}
				h := cellHash(id, bits)
				for slots[h].id != id && slots[h].id != NoID {
					h = (h + 1) & mask
				}
				if slots[h].id == NoID {
					slots[h] = cellSlot{id: id, grp: int32(len(grpLast))}
					grpLast, grpLen = append(grpLast, -1), append(grpLen, 0)
				}
				k := slots[h].grp
				if grpLast[k] == int32(g) {
					continue
				}
				grpLast[k] = int32(g)
				grpLen[k]++
				colCells[g]++
				ents = append(ents, cellEntry{grp: k, col: int32(g)})
			}
		}
	}
	s.grpLast, s.grpLen, s.ents = grpLast, grpLen, ents

	// Each group's run starts where the previous one ends; placing the
	// entries in generation order advances grpLen[k] to the end of run k.
	sum := int32(0)
	for k, n := range grpLen {
		grpLen[k], sum = sum, sum+n
	}
	s.grouped = slicex.Grow(s.grouped, len(ents))
	grouped := s.grouped
	for _, e := range ents {
		grouped[grpLen[e.grp]] = e.col
		grpLen[e.grp]++
	}

	s.counts = slicex.GrowClear(s.counts, size)
	counts, rowOff, colEnd := s.counts, s.rowOff, s.colEnd
	start := int32(0)
	for _, end := range grpLen {
		run := grouped[start:end]
		start = end
		// Within a run the columns ascend, so each cross-table pair is
		// counted in the row of its first column.
		for a, ga := range run {
			off, end := rowOff[ga], colEnd[ga]
			for _, gb := range run[a+1:] {
				if int(gb) >= end {
					counts[off+int(gb)]++
				}
			}
		}
	}
}

// matchPair marks the survivors es of views a and b, in (c1, c2) order,
// that the blended content+header one-one max-matching keeps (§3.3,
// "Max-matching Edges"); column pairs below the neighbor threshold are
// zero-weight cells of the grid. When no two survivors share a column and
// graph.DisjointMatched holds for the bounds of their weights, every one
// is matched with no HeaderSim and no solve; otherwise the matching is
// solved in s's workspace.
func matchPair(a, b *TableView, es []rawEdge, s *BuildScratch) {
	if disjointMatched(a.NumCols, b.NumCols, es, s) {
		for i := range es {
			es[i].matched = true
		}
		return
	}
	cells := s.match[:0]
	for i := range es {
		e := &es[i]
		cells = append(cells, graph.Cell{L: e.c1, R: e.c2, W: matchContentWeight*e.sim +
			matchHeaderWeight*HeaderSim(a, b, int(e.c1), int(e.c2))})
	}
	s.match = cells
	for i, m := range graph.MatchCells(a.NumCols, b.NumCols, cells, &s.ws) {
		es[i].matched = m
	}
}

// disjointMatched reports whether MatchCells would mark every survivor of
// es without solving. The header term lies in [0, matchHeaderWeight]
// (HeaderSim is a Jaccard), so the content terms bound every cell's weight
// from below and, plus that weight, from above.
// Two survivors share a column when one finds it already stamped with
// this pair's stamp in s.mark, indexed by global column, which keeps the
// two sides apart.
func disjointMatched(n1, n2 int, es []rawEdge, s *BuildScratch) bool {
	minSim, maxSim := es[0].sim, es[0].sim
	for i := 1; i < len(es); i++ {
		minSim, maxSim = min(minSim, es[i].sim), max(maxSim, es[i].sim)
	}
	if !graph.DisjointMatched(n1, n2, len(es), matchContentWeight*minSim,
		matchContentWeight*maxSim+matchHeaderWeight) {
		return false
	}
	s.stamp++
	off1, off2 := s.colOff[es[0].t1], s.colOff[es[0].t2]
	for i := range es {
		g1, g2 := off1+int(es[i].c1), off2+int(es[i].c2)
		if s.mark[g1] == s.stamp || s.mark[g2] == s.stamp {
			return false
		}
		s.mark[g1], s.mark[g2] = s.stamp, s.stamp
	}
	return true
}
