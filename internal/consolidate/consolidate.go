package consolidate

import (
	"cmp"
	"slices"
	"strings"

	"wwt/internal/core"
	"wwt/internal/slicex"
)

// keyJaccard is the token-set similarity at or above which two
// first-column cells are the same entity.
const keyJaccard float64 = 0.8

// Row is one consolidated answer row.
type Row struct {
	Cells   []string // one per query column ("" when unknown)
	Support int      // number of source tables contributing
	Sources []string // contributing table IDs
	// Score is the summed relevance R(Q,t) of the row's source tables
	// (1 per table when no relevance is given). It ranks rows of equal
	// Support; rows whose Score ties too, as rows whose every source lies
	// below Eq. 2's relevance threshold do at 0, fall through to their
	// filled-cell count and then to their first cell.
	Score float64
}

// Answer is the consolidated result table.
type Answer struct {
	NumCols int
	Rows    []Row
	// Sources lists the relevant tables that were merged.
	Sources []string
}

// Scratch is the reusable working state of one consolidation: the exact
// and fuzzy key indexes, the table IDs merged so far, the per-table
// column mapping, the cell IDs of the answer rows and the chains of their
// sources. Only the returned Answer survives a call (it is always freshly
// allocated), so a Scratch may be reused as soon as Consolidate returns.
// The zero value is ready to use.
type Scratch struct {
	exact  map[uint32]int      // key cell ID -> answer row
	merged map[string]struct{} // the IDs of the tables merged so far
	keys   [][]uint32          // answer row -> its key's token set (interner-owned)
	colFor []int
	ids    []uint32 // the cell IDs of the row being read
	rowIDs []uint32 // answer row i's cell IDs at [i*q, (i+1)*q)

	// Every answer row's sources, as chains through one list in joining
	// order; the Answer's rows get them as cuts of one exact-size backing.
	srcID   []string // table IDs
	srcPrev []int32  // index of the same row's previous source, -1 for its first
	srcLast []int32  // answer row -> index of its latest source
}

// Consolidate merges the rows of all tables marked relevant by the
// labeling. views are the model's views, one per labeled table, sharing
// one interner; relevance[t] supplies table scores (may be nil: uniform
// 1); s is a caller-owned scratch (nil for a fresh one). Keys match when
// their cell IDs are equal or their token sets reach keyJaccard, and
// two rows agree when each pair of their cells does on half its tokens.
func Consolidate(q int, views []*core.TableView, l core.Labeling, relevance []float64, s *Scratch) *Answer {
	if s == nil {
		s = &Scratch{}
	}
	if s.exact == nil {
		s.exact, s.merged = make(map[uint32]int), make(map[string]struct{})
	}
	clear(s.exact)
	clear(s.merged)
	ans := &Answer{NumCols: q}
	exact, keys, rowIDs := s.exact, s.keys[:0], s.rowIDs[:0]
	srcID, srcPrev, srcLast := s.srcID[:0], s.srcPrev[:0], s.srcLast[:0]
	s.colFor, s.ids = slicex.Grow(s.colFor, q), slicex.Grow(s.ids, q)
	colFor, ids := s.colFor, s.ids
	defer func() {
		s.keys, s.rowIDs = keys, rowIDs
		s.srcID, s.srcPrev, s.srcLast = srcID, srcPrev, srcLast
	}()
	// hasSource reports whether answer row i already lists table id.
	hasSource := func(i int, id string) bool {
		for j := srcLast[i]; j >= 0; j = srcPrev[j] {
			if srcID[j] == id {
				return true
			}
		}
		return false
	}

	for ti, v := range views {
		if ti >= len(l.Y) || !l.Relevant(ti) {
			continue
		}
		for ell := range colFor {
			colFor[ell] = l.ColumnOf(ti, ell)
		}
		if colFor[0] < 0 {
			continue // no key column mapped; nothing to anchor rows on
		}
		tb := v.Table
		// A row counts this table iff its last source is tb.ID, unless an
		// earlier table had the same ID (see the package doc).
		_, repeated := s.merged[tb.ID]
		s.merged[tb.ID] = struct{}{}
		ans.Sources = append(ans.Sources, tb.ID)
		rel := 1.0
		if relevance != nil && ti < len(relevance) {
			rel = relevance[ti]
		}
		for r := 0; r < tb.NumBodyRows(); r++ {
			key := v.Cell(r, colFor[0])
			if key == core.NoID {
				continue
			}
			for ell, c := range colFor {
				ids[ell] = core.NoID
				if c >= 0 {
					ids[ell] = v.Cell(r, c)
				}
			}
			target, ok := exact[key]
			if !ok {
				set := v.CellTokens(key)
				target = slices.IndexFunc(keys, func(k []uint32) bool { return jaccardAtLeast(set, k, keyJaccard) })
			}
			if target >= 0 && compatible(v, rowIDs[target*q:(target+1)*q], ids) {
				row, known := &ans.Rows[target], rowIDs[target*q:(target+1)*q]
				for ell, c := range colFor { // fill blanks
					if row.Cells[ell] == "" && c >= 0 {
						row.Cells[ell], known[ell] = tb.Body(r, c), ids[ell]
					}
				}
				counted := srcID[srcLast[target]] == tb.ID
				if !counted && repeated {
					counted = hasSource(target, tb.ID)
				}
				if !counted { // support counts distinct table IDs
					srcID, srcPrev = append(srcID, tb.ID), append(srcPrev, srcLast[target])
					srcLast[target] = int32(len(srcID) - 1)
					row.Support++
					row.Score += rel
				}
				continue
			}
			cells := make([]string, q)
			for ell, c := range colFor {
				if c >= 0 {
					cells[ell] = tb.Body(r, c)
				}
			}
			ans.Rows = append(ans.Rows, Row{Cells: cells, Support: 1, Score: rel})
			srcLast = append(srcLast, int32(len(srcID)))
			srcID, srcPrev = append(srcID, tb.ID), append(srcPrev, -1)
			rowIDs = append(rowIDs, ids...)
			exact[key] = len(ans.Rows) - 1
			keys = append(keys, v.CellTokens(key))
		}
	}
	// Support counts a row's sources, so the chains fill the backing
	// exactly; each row's cut is capped so nothing appends across rows.
	back, off := make([]string, len(srcID)), 0
	for i := range ans.Rows {
		n := ans.Rows[i].Support
		src := back[off : off+n : off+n]
		for j, k := srcLast[i], n-1; j >= 0; j, k = srcPrev[j], k-1 {
			src[k] = srcID[j]
		}
		ans.Rows[i].Sources = src
		off += n
	}
	rankRows(ans)
	return ans
}

// compatible reports whether two rows, given by their cell IDs, can
// describe the same entity: every pair of cells with content words must
// agree on at least half of their token sets (equal IDs trivially do).
func compatible(v *core.TableView, a, b []uint32) bool {
	for i := range a {
		if a[i] != core.NoID && b[i] != core.NoID && a[i] != b[i] &&
			core.JaccardIDs(v.CellTokens(a[i]), v.CellTokens(b[i])) < 0.5 {
			return false
		}
	}
	return true
}

// jaccardAtLeast reports JaccardIDs(a, b) >= threshold for two non-empty
// sorted sets, skipping the merge when even full containment
// (|small|/|large|) could not reach it; division rounds monotonically, so
// the bound is exact.
func jaccardAtLeast(a, b []uint32, threshold float64) bool {
	lo, hi := len(a), len(b)
	if lo > hi {
		lo, hi = hi, lo
	}
	if float64(lo)/float64(hi) < threshold {
		return false
	}
	return core.JaccardIDs(a, b) >= threshold
}

// rankRows implements the ranker: higher support first, then score, then
// fuller rows, then stable lexicographic key order for determinism.
func rankRows(ans *Answer) {
	filled := func(r Row) int {
		n := 0
		for _, c := range r.Cells {
			if c != "" {
				n++
			}
		}
		return n
	}
	slices.SortStableFunc(ans.Rows, func(a, b Row) int {
		if a.Support != b.Support {
			return cmp.Compare(b.Support, a.Support)
		}
		if a.Score != b.Score {
			if a.Score > b.Score {
				return -1
			}
			return 1
		}
		if fa, fb := filled(a), filled(b); fa != fb {
			return cmp.Compare(fb, fa)
		}
		return strings.Compare(a.Cells[0], b.Cells[0])
	})
}
