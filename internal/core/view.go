package core

import (
	"cmp"
	"math"
	"slices"
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
// A view is a pure function of the table text and the view-affecting
// params (FreqTokenMinFrac/FreqTokenMinCount): it holds no corpus
// statistics. The one place they enter a table's analysis, the TF-IDF
// cosine of inSim, reads header weights each build computes under its own
// statistics (headerWeights), so a cached view stays valid across every
// generation of a live engine.
//
// Every ID (the body cells, HeaderIDs and the title, context and
// frequent-body token sets) is interned: two views may be compared — by
// the edge pass's shared cells, HeaderSim or consolidation's cell
// matching — only when both were built against the same Interner
// (ViewCache and Builder.Build guarantee this for every view inside one
// model), and a query token is looked up in the view's interner before
// it is matched against the token sets.
type TableView struct {
	Table   *wtable.Table
	NumCols int

	// in is the symbol table every ID of the view belongs to.
	in *Interner

	// hdrToks holds the normalized tokens of every header cell, flat in
	// (header row, column, token) order: cell (r, c) is
	// hdrToks[hdrOff[r*NumCols+c]:hdrOff[r*NumCols+c+1]].
	hdrToks []string
	hdrOff  []int32

	// titleIDs: sorted IDs of the title-row and caption tokens.
	titleIDs []uint32
	// ctxIDs: sorted IDs of the context tokens; ctxScore, aligned with
	// it, the best score of a snippet containing each (§2.1.2 attaches
	// snippet scores exactly for this use): page titles carry 1.0; buried
	// or trailing snippets carry less, so a stray mention far from the
	// table cannot ride outSim at full reliability.
	ctxIDs   []uint32
	ctxScore []float64
	// freqIDs: sorted IDs of the tokens frequent in some column (the B
	// part of outSim).
	freqIDs []uint32

	// cells: the interned whole-cell ID of every body cell, row-major
	// (cell (r, c) at r*NumCols+c). A cell's key is its normalized tokens
	// joined by spaces, so its token set in the interner is those tokens;
	// a cell without content words gets NoID. The edge pass's content
	// overlap and consolidation's row matching both read it.
	cells []uint32
	// HeaderIDs[c]: sorted interned IDs of the unique header tokens of
	// column c over all header rows (drives header similarity).
	HeaderIDs [][]uint32
}

// NewTableView analyzes a table once, interning cell strings and tokens
// into in. A nil interner gets a private one — safe only when the view is
// never compared against another view (cross-view similarities require a
// shared interner).
func NewTableView(t *wtable.Table, p Params, in *Interner) *TableView {
	if in == nil {
		in = NewInterner()
	}
	v := &TableView{Table: t, NumCols: t.NumCols(), in: in}
	cells := make([][]string, len(t.HeaderRows)*v.NumCols)
	n := 0
	for i := range cells {
		cells[i] = text.Normalize(t.Header(i/v.NumCols, i%v.NumCols))
		n += len(cells[i])
	}
	v.hdrToks = make([]string, 0, n)
	v.hdrOff = make([]int32, len(cells)+1)
	for i, toks := range cells {
		v.hdrToks = append(v.hdrToks, toks...)
		v.hdrOff[i+1] = int32(len(v.hdrToks))
	}
	v.titleIDs = internSet(in, text.Normalize(t.TitleText()))

	ctx := make(map[string]float64)
	for _, w := range text.Normalize(t.PageTitle) {
		ctx[w] = 1.0
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
			if score > ctx[w] {
				ctx[w] = score
			}
		}
	}
	type scored struct {
		id    uint32
		score float64
	}
	byID := make([]scored, 0, len(ctx))
	for w, score := range ctx {
		byID = append(byID, scored{in.Intern(w), score})
	}
	slices.SortFunc(byID, func(a, b scored) int { return cmp.Compare(a.id, b.id) })
	v.ctxIDs = make([]uint32, len(byID))
	v.ctxScore = make([]float64, len(byID))
	for i, e := range byID {
		v.ctxIDs[i], v.ctxScore[i] = e.id, e.score
	}

	v.HeaderIDs = make([][]uint32, v.NumCols)
	var freq []uint32
	rows := len(t.BodyRows)
	v.cells = make([]uint32, rows*v.NumCols)
	for c := 0; c < v.NumCols; c++ {
		counts := make(map[string]int)
		for r := 0; r < rows; r++ {
			v.cells[r*v.NumCols+c] = NoID
			cell := t.Body(r, c)
			if cell == "" {
				continue
			}
			toks := text.Normalize(cell)
			if key := strings.Join(toks, " "); key != "" {
				v.cells[r*v.NumCols+c] = in.Intern(key)
			}
			seen := make(map[string]bool, len(toks))
			for _, w := range toks {
				if !seen[w] {
					seen[w] = true
					counts[w]++
				}
			}
		}
		var hids []uint32
		for r := range t.HeaderRows {
			for _, w := range v.headerCell(r, c) {
				hids = append(hids, in.Intern(w))
			}
		}
		v.HeaderIDs[c] = sortedIDSet(hids)
		// Frequent tokens of this column feed the B part of outSim.
		if rows > 0 {
			for w, n := range counts {
				if n >= p.FreqTokenMinCount && float64(n) >= p.FreqTokenMinFrac*float64(rows) {
					freq = append(freq, in.Intern(w))
				}
			}
		}
	}
	v.freqIDs = sortedIDSet(freq)
	return v
}

// internSet interns every token and returns the sorted ID set.
func internSet(in *Interner, toks []string) []uint32 {
	ids := make([]uint32, len(toks))
	for i, w := range toks {
		ids[i] = in.Intern(w)
	}
	return sortedIDSet(ids)
}

// HeaderRowCount returns the number of header rows.
func (v *TableView) HeaderRowCount() int { return len(v.Table.HeaderRows) }

// headerSpan returns the bounds of header cell (r, c) in hdrToks.
func (v *TableView) headerSpan(r, c int) (lo, hi int) {
	i := r*v.NumCols + c
	return int(v.hdrOff[i]), int(v.hdrOff[i+1])
}

// headerCell returns the normalized tokens of header row r, column c.
func (v *TableView) headerCell(r, c int) []string {
	lo, hi := v.headerSpan(r, c)
	return v.hdrToks[lo:hi:hi]
}

// headerHas reports whether token w occurs in header row r, column c.
func (v *TableView) headerHas(r, c int, w string) bool {
	if r < 0 || r >= v.HeaderRowCount() || c < 0 || c >= v.NumCols {
		return false
	}
	return slices.Contains(v.headerCell(r, c), w)
}

// otherHeaderRowsHave reports whether w appears in column c in a header
// row other than r (the Hc part of outSim).
func (v *TableView) otherHeaderRowsHave(r, c int, w string) bool {
	for rr := 0; rr < v.HeaderRowCount(); rr++ {
		if rr != r && slices.Contains(v.headerCell(rr, c), w) {
			return true
		}
	}
	return false
}

// otherHeaderColsHave reports whether w appears in header row r in a
// column other than c (the Hr part of outSim).
func (v *TableView) otherHeaderColsHave(r, c int, w string) bool {
	if r < 0 || r >= v.HeaderRowCount() {
		return false
	}
	for cc := 0; cc < v.NumCols; cc++ {
		if cc != c && slices.Contains(v.headerCell(r, cc), w) {
			return true
		}
	}
	return false
}

// inTitle reports whether the token with ID id occurs in the title part.
func (v *TableView) inTitle(id uint32) bool {
	_, ok := slices.BinarySearch(v.titleIDs, id)
	return ok
}

// contextScore returns the context score of the token with ID id, 0 when
// no snippet contains it.
func (v *TableView) contextScore(id uint32) float64 {
	if i, ok := slices.BinarySearch(v.ctxIDs, id); ok {
		return v.ctxScore[i]
	}
	return 0
}

// inFreqBody reports whether the token with ID id is frequent in some
// column.
func (v *TableView) inFreqBody(id uint32) bool {
	_, ok := slices.BinarySearch(v.freqIDs, id)
	return ok
}

// lookupIDs writes the IDs of toks in the view's interner into ids (same
// length), NoID for a token no view has interned.
func (v *TableView) lookupIDs(toks []string, ids []uint32) {
	for i, w := range toks {
		ids[i] = v.in.Lookup(w)
	}
}

// Cell returns the interned whole-cell ID of body cell (r, c): NoID when
// the cell has no content words.
func (v *TableView) Cell(r, c int) uint32 { return v.cells[r*v.NumCols+c] }

// CellKey returns the interned key of body cell (r, c): its normalized
// tokens joined by single spaces, "" when the cell has no content words.
// Splitting it on ' ' gives back exactly text.Normalize of the cell.
func (v *TableView) CellKey(r, c int) string { return v.in.str(v.Cell(r, c)) }

// CellTokens returns the sorted token-ID set of a cell ID from Cell (nil
// for NoID): the IDs of the cell's normalized tokens. The slice is shared
// and read-only.
func (v *TableView) CellTokens(id uint32) []uint32 { return v.in.tokens(id) }

// HeaderSim is the token-set Jaccard of two columns' concatenated headers,
// over the views' sorted interned header-token IDs. Both views must share
// one Interner.
func HeaderSim(a, b *TableView, ca, cb int) float64 {
	return JaccardIDs(a.HeaderIDs[ca], b.HeaderIDs[cb])
}

func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Sqrt(x)
}
