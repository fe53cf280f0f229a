package core

import (
	"math"
	"strings"

	"wwt/internal/text"
	"wwt/internal/wtable"
)

// QueryColumn is one analyzed query column: the normalized token sequence
// (order matters — SegSim segments it into prefix and suffix) and the
// squared TF-IDF mass of every token under the corpus statistics.
type QueryColumn struct {
	Raw    string
	Tokens []string
	TI2    []float64 // TI(w)² per token
	NormSq float64   // ‖Qℓ‖²
}

// AnalyzeQuery normalizes each raw query column against the corpus stats.
func AnalyzeQuery(cols []string, stats CorpusStats) []QueryColumn {
	out := make([]QueryColumn, len(cols))
	for i, raw := range cols {
		toks := text.Normalize(raw)
		qc := QueryColumn{Raw: raw, Tokens: toks, TI2: make([]float64, len(toks))}
		for j, w := range toks {
			ti := stats.IDF(w)
			qc.TI2[j] = ti * ti
			qc.NormSq += ti * ti
		}
		out[i] = qc
	}
	return out
}

// TableView caches every piece of analyzed text the features touch, so
// that feature computation stays pure and allocation-light.
//
// The ID-based column sets (ColCellIDs, HeaderIDs) are interned: two views
// may be compared by ContentSim/HeaderSim only when both were built
// against the same Interner (ViewCache and Builder.Build guarantee this
// for every view inside one model).
type TableView struct {
	Table   *wtable.Table
	NumCols int

	// HeaderTokens[r][c]: normalized tokens of header row r, column c.
	HeaderTokens [][][]string
	// headerSet[r][c]: membership set of HeaderTokens[r][c].
	headerSet [][]map[string]bool
	// headerVec[r][c]: TF-IDF vector of the header cell; headerNorm its L2
	// norm (for inSim cosines).
	headerVec  [][]map[string]float64
	headerNorm [][]float64

	TitleSet map[string]bool // title rows + caption
	// ContextScore maps each context token to the best score of a snippet
	// containing it (§2.1.2 attaches snippet scores exactly for this use):
	// page titles carry 1.0; buried or trailing snippets carry less, so a
	// stray mention far from the table cannot ride outSim at full
	// reliability.
	ContextScore map[string]float64
	FreqBody     map[string]bool // tokens frequent in some column (B part)

	// ColCellIDs[c]: sorted interned IDs of the normalized whole-cell
	// strings of column c (drives content-overlap similarity).
	ColCellIDs [][]uint32
	// ColTokens[c]: all normalized body tokens of column c.
	ColTokens [][]string
	// HeaderConcat[c]: all header tokens of column c, rows concatenated.
	HeaderConcat [][]string
	// HeaderIDs[c]: sorted interned IDs of the unique tokens of
	// HeaderConcat[c] (drives header similarity).
	HeaderIDs [][]uint32
}

// NewTableView analyzes a table once against the corpus statistics,
// interning cell strings and header tokens into in. A nil interner gets a
// private one — safe only when the view is never compared against another
// view (cross-view similarities require a shared interner).
func NewTableView(t *wtable.Table, p Params, stats CorpusStats, in *Interner) *TableView {
	if in == nil {
		in = NewInterner()
	}
	v := &TableView{Table: t, NumCols: t.NumCols()}
	h := len(t.HeaderRows)
	v.HeaderTokens = make([][][]string, h)
	v.headerSet = make([][]map[string]bool, h)
	v.headerVec = make([][]map[string]float64, h)
	v.headerNorm = make([][]float64, h)
	for r := 0; r < h; r++ {
		v.HeaderTokens[r] = make([][]string, v.NumCols)
		v.headerSet[r] = make([]map[string]bool, v.NumCols)
		v.headerVec[r] = make([]map[string]float64, v.NumCols)
		v.headerNorm[r] = make([]float64, v.NumCols)
		for c := 0; c < v.NumCols; c++ {
			toks := text.Normalize(t.Header(r, c))
			v.HeaderTokens[r][c] = toks
			v.headerSet[r][c] = toSet(toks)
			vec := make(map[string]float64, len(toks))
			for _, w := range toks {
				vec[w] += stats.IDF(w)
			}
			// Sum the norm in first-occurrence token order, not map order:
			// float addition is order-sensitive and header norms feed the
			// bit-deterministic model build.
			var n2 float64
			seen := make(map[string]bool, len(vec))
			for _, w := range toks {
				if seen[w] {
					continue
				}
				seen[w] = true
				x := vec[w]
				n2 += x * x
			}
			v.headerVec[r][c] = vec
			v.headerNorm[r][c] = sqrt(n2)
		}
	}
	v.TitleSet = toSet(text.Normalize(t.TitleText()))
	v.ContextScore = make(map[string]float64)
	for _, w := range text.Normalize(t.PageTitle) {
		v.ContextScore[w] = 1.0
	}
	for _, s := range t.Context {
		score := s.Score
		if score > 1 {
			score = 1
		}
		if score < 0 {
			score = 0
		}
		for _, w := range text.Normalize(s.Text) {
			if score > v.ContextScore[w] {
				v.ContextScore[w] = score
			}
		}
	}

	v.ColCellIDs = make([][]uint32, v.NumCols)
	v.ColTokens = make([][]string, v.NumCols)
	v.HeaderConcat = make([][]string, v.NumCols)
	v.HeaderIDs = make([][]uint32, v.NumCols)
	v.FreqBody = make(map[string]bool)
	rows := len(t.BodyRows)
	for c := 0; c < v.NumCols; c++ {
		cellIDs := make([]uint32, 0, rows)
		counts := make(map[string]int)
		var colToks []string
		for r := 0; r < rows; r++ {
			cell := t.Body(r, c)
			if cell == "" {
				continue
			}
			toks := text.Normalize(cell)
			colToks = append(colToks, toks...)
			if key := strings.Join(toks, " "); key != "" {
				cellIDs = append(cellIDs, in.Intern(key))
			}
			seen := make(map[string]bool, len(toks))
			for _, w := range toks {
				if !seen[w] {
					seen[w] = true
					counts[w]++
				}
			}
		}
		v.ColCellIDs[c] = sortedIDSet(cellIDs)
		v.ColTokens[c] = colToks
		for r := 0; r < len(v.HeaderTokens); r++ {
			v.HeaderConcat[c] = append(v.HeaderConcat[c], v.HeaderTokens[r][c]...)
		}
		hids := make([]uint32, 0, len(v.HeaderConcat[c]))
		for _, w := range v.HeaderConcat[c] {
			hids = append(hids, in.Intern(w))
		}
		v.HeaderIDs[c] = sortedIDSet(hids)
		// Frequent tokens of this column feed the B part of outSim.
		if rows > 0 {
			for w, n := range counts {
				if n >= p.FreqTokenMinCount && float64(n) >= p.FreqTokenMinFrac*float64(rows) {
					v.FreqBody[w] = true
				}
			}
		}
	}
	return v
}

// HeaderRowCount returns the number of header rows.
func (v *TableView) HeaderRowCount() int { return len(v.HeaderTokens) }

// headerHas reports whether token w occurs in header row r, column c.
func (v *TableView) headerHas(r, c int, w string) bool {
	if r < 0 || r >= len(v.headerSet) || c < 0 || c >= len(v.headerSet[r]) {
		return false
	}
	return v.headerSet[r][c][w]
}

// otherHeaderRowsHave reports whether w appears in column c in a header
// row other than r (the Hc part of outSim).
func (v *TableView) otherHeaderRowsHave(r, c int, w string) bool {
	for rr := 0; rr < len(v.headerSet); rr++ {
		if rr != r && v.headerSet[rr][c][w] {
			return true
		}
	}
	return false
}

// otherHeaderColsHave reports whether w appears in header row r in a
// column other than c (the Hr part of outSim).
func (v *TableView) otherHeaderColsHave(r, c int, w string) bool {
	if r < 0 || r >= len(v.headerSet) {
		return false
	}
	for cc := 0; cc < len(v.headerSet[r]); cc++ {
		if cc != c && v.headerSet[r][cc][w] {
			return true
		}
	}
	return false
}

// ContentSim is the content-overlap similarity between two columns: the
// Jaccard similarity of their normalized whole-cell sets, computed as an
// allocation-free merge over the views' sorted interned cell IDs. Both
// views must share one Interner.
func ContentSim(a, b *TableView, ca, cb int) float64 {
	return jaccardSortedIDs(a.ColCellIDs[ca], b.ColCellIDs[cb])
}

// HeaderSim is the token-set Jaccard of two columns' concatenated headers,
// over the views' sorted interned header-token IDs. Both views must share
// one Interner.
func HeaderSim(a, b *TableView, ca, cb int) float64 {
	return jaccardSortedIDs(a.HeaderIDs[ca], b.HeaderIDs[cb])
}

func toSet(toks []string) map[string]bool {
	s := make(map[string]bool, len(toks))
	for _, t := range toks {
		s[t] = true
	}
	return s
}

func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Sqrt(x)
}
