package consolidate

import (
	"cmp"
	"slices"
	"strings"

	"wwt/internal/core"
	"wwt/internal/text"
	"wwt/internal/wtable"
)

// Options tunes consolidation.
type Options struct {
	// KeyJaccard is the token-set similarity above which two first-column
	// cells are considered the same entity.
	KeyJaccard float64
	// MaxRows caps the answer size (0 = unlimited).
	MaxRows int
}

// NewOptions returns defaults.
func NewOptions() Options { return Options{KeyJaccard: 0.8, MaxRows: 0} }

// Row is one consolidated answer row.
type Row struct {
	Cells   []string // one per query column ("" when unknown)
	Support int      // number of source tables contributing
	Sources []string // contributing table IDs
	Score   float64  // support + relevance mass, drives ranking
}

// Answer is the consolidated result table.
type Answer struct {
	NumCols int
	Rows    []Row
	// Sources lists the relevant tables that were merged.
	Sources []string
}

// keyedRow pairs a row's key token set with its answer-row index for the
// fuzzy key matching.
type keyedRow struct {
	keySet []string // sorted, deduplicated normalized key tokens
	row    int      // index into ans.Rows
}

// cellNorm is the analysis of one cell string: its normalized tokens as a
// sorted, deduplicated set, and — once the cell has served as a row key —
// the exact key, those tokens joined in Normalize order.
type cellNorm struct {
	set   []string
	key   string
	keyed bool
}

// Scratch is the reusable working state of one consolidation: the exact
// and fuzzy key indexes, the per-table column mapping, the row being
// assembled, and the memo of normalized cells. Only the returned Answer
// survives a call (it is always freshly allocated), so a Scratch may be
// reused as soon as Consolidate returns. The zero value is ready to use.
type Scratch struct {
	exact  map[string]int
	fuzzy  []keyedRow
	colFor []int
	cells  []string
	// norms memoizes cell string → analysis for one call, so each distinct
	// cell is normalized once however many rows and merge attempts read it.
	norms map[string]cellNorm
}

// Consolidate merges the rows of all tables marked relevant by the
// labeling. relevance[t] supplies table scores (may be nil: uniform 1).
func Consolidate(q int, tables []*wtable.Table, l core.Labeling, relevance []float64, opts Options) *Answer {
	return ConsolidateScratch(q, tables, l, relevance, opts, nil)
}

// ConsolidateScratch is Consolidate through a caller-owned scratch (nil
// for a fresh private one).
func ConsolidateScratch(q int, tables []*wtable.Table, l core.Labeling, relevance []float64, opts Options, s *Scratch) *Answer {
	if s == nil {
		s = &Scratch{}
	}
	ans := &Answer{NumCols: q}
	if s.exact == nil {
		s.exact = make(map[string]int)
	}
	if s.norms == nil {
		s.norms = make(map[string]cellNorm)
	}
	clear(s.exact)
	clear(s.norms)
	exact := s.exact // normalized key -> row index
	fuzzy := s.fuzzy[:0]
	defer func() { s.fuzzy = fuzzy }()

	if cap(s.colFor) < q {
		s.colFor = make([]int, q)
		s.cells = make([]string, q)
	}
	colFor := s.colFor[:q]
	cells := s.cells[:q]

	for ti, tb := range tables {
		if ti >= len(l.Y) || !l.Relevant(ti) {
			continue
		}
		for ell := 0; ell < q; ell++ {
			colFor[ell] = l.ColumnOf(ti, ell)
		}
		if colFor[0] < 0 {
			continue // no key column mapped; nothing to anchor rows on
		}
		ans.Sources = append(ans.Sources, tb.ID)
		rel := 1.0
		if relevance != nil && ti < len(relevance) {
			rel = relevance[ti]
		}
		for r := 0; r < tb.NumBodyRows(); r++ {
			key := strings.TrimSpace(tb.Body(r, colFor[0]))
			if key == "" {
				continue
			}
			kn := s.norm(key, true)
			if kn.key == "" {
				continue
			}
			for ell := 0; ell < q; ell++ {
				cells[ell] = ""
				if colFor[ell] >= 0 {
					cells[ell] = strings.TrimSpace(tb.Body(r, colFor[ell]))
				}
			}
			target := -1
			if idx, ok := exact[kn.key]; ok {
				target = idx
			} else if opts.KeyJaccard < 1 {
				for _, kr := range fuzzy {
					if jaccardAtLeast(kn.set, kr.keySet, opts.KeyJaccard) {
						target = kr.row
						break
					}
				}
			}
			if target >= 0 && s.compatible(ans.Rows[target].Cells, cells) {
				merge(&ans.Rows[target], cells, tb.ID, rel)
			} else {
				ans.Rows = append(ans.Rows, Row{
					Cells:   slices.Clone(cells),
					Support: 1,
					Sources: []string{tb.ID},
					Score:   rel,
				})
				idx := len(ans.Rows) - 1
				exact[kn.key] = idx
				fuzzy = append(fuzzy, keyedRow{keySet: kn.set, row: idx})
			}
		}
	}
	rankRows(ans)
	if opts.MaxRows > 0 && len(ans.Rows) > opts.MaxRows {
		ans.Rows = ans.Rows[:opts.MaxRows]
	}
	return ans
}

// norm returns the memoized analysis of cell, adding its exact key when
// asKey. A cell is normalized once per call — twice at most, when it is
// read as a plain cell before it first serves as a key.
func (s *Scratch) norm(cell string, asKey bool) cellNorm {
	if n, ok := s.norms[cell]; ok && (n.keyed || !asKey) {
		return n
	}
	toks := text.Normalize(cell)
	n := cellNorm{keyed: asKey}
	if asKey {
		n.key = strings.Join(toks, " ")
	}
	slices.Sort(toks)
	n.set = slices.Compact(toks)
	s.norms[cell] = n
	return n
}

// compatible reports whether two projected rows can describe the same
// entity: every pair of non-empty cells must agree on at least half of
// their token sets.
func (s *Scratch) compatible(a, b []string) bool {
	for i := range a {
		if a[i] == "" || b[i] == "" {
			continue
		}
		ta, tb := s.norm(a[i], false).set, s.norm(b[i], false).set
		if len(ta) == 0 || len(tb) == 0 {
			continue
		}
		if jaccard(ta, tb) < 0.5 {
			return false
		}
	}
	return true
}

// jaccard is the Jaccard similarity of two sorted, deduplicated token
// sets by an allocation-free merge. Its intersection and union counts are
// text.JaccardTokens', so the result is the same float.
func jaccard(a, b []string) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	inter := 0
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch c := strings.Compare(a[i], b[j]); {
		case c < 0:
			i++
		case c > 0:
			j++
		default:
			inter++
			i++
			j++
		}
	}
	return float64(inter) / float64(len(a)+len(b)-inter)
}

// jaccardAtLeast reports jaccard(a, b) >= threshold for two non-empty
// sorted sets, skipping the merge when even full containment
// (|small|/|large|) could not reach it; division rounds monotonically, so
// the bound is exact.
func jaccardAtLeast(a, b []string, threshold float64) bool {
	lo, hi := len(a), len(b)
	if lo > hi {
		lo, hi = hi, lo
	}
	if float64(lo)/float64(hi) < threshold {
		return false
	}
	return jaccard(a, b) >= threshold
}

// merge folds cells into row: fills blanks, bumps support once per new
// source table.
func merge(row *Row, cells []string, source string, rel float64) {
	for i, c := range cells {
		if row.Cells[i] == "" {
			row.Cells[i] = c
		}
	}
	for _, s := range row.Sources {
		if s == source {
			return
		}
	}
	row.Sources = append(row.Sources, source)
	row.Support++
	row.Score += rel
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
