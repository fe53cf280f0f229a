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
// A view is a pure function of the table text: it holds no corpus
// statistics. The one place they enter a table's analysis, the TF-IDF
// cosine of inSim, reads header weights each build computes under its own
// statistics (headerWeights), so a cached view stays valid across every
// generation of a live engine.
//
// Every ID (the body cells, the header cells' tokens, HeaderIDs and the
// title, context and frequent-body token sets) is interned: two views may
// be compared — by the edge pass's shared cells, HeaderSim or
// consolidation's cell matching — only when both were built against the
// same Interner (ViewCache and Builder.Build guarantee this for every view
// inside one model), and a query token is looked up in the view's
// interner before it is matched against the token sets and header cells.
type TableView struct {
	Table   *wtable.Table
	NumCols int

	// in is the symbol table every ID of the view belongs to.
	in *Interner

	// hdrIDs holds the interned IDs of the normalized tokens of every
	// header cell, flat in (header row, column, token) order: cell (r, c)
	// is hdrIDs[hdrOff[r*NumCols+c]:hdrOff[r*NumCols+c+1]], its tokens in
	// cell order, repeats kept.
	hdrIDs []uint32
	hdrOff []int32

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
func NewTableView(t *wtable.Table, in *Interner) *TableView {
	if in == nil {
		in = NewInterner()
	}
	v := &TableView{Table: t, NumCols: t.NumCols(), in: in}
	// Interning order assigns IDs: the header tokens are interned column
	// by column below, after the title, the context and each column's
	// body cells.
	hdr := make([][]string, len(t.HeaderRows)*v.NumCols)
	v.hdrOff = make([]int32, len(hdr)+1)
	for i := range hdr {
		hdr[i] = text.Normalize(t.Header(i/v.NumCols, i%v.NumCols))
		v.hdrOff[i+1] = v.hdrOff[i] + int32(len(hdr[i]))
	}
	v.hdrIDs = make([]uint32, v.hdrOff[len(hdr)])
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
			cell := r*v.NumCols + c
			ids := v.hdrIDs[v.hdrOff[cell]:v.hdrOff[cell+1]]
			for i, w := range hdr[cell] {
				ids[i] = in.Intern(w)
			}
			hids = append(hids, ids...)
		}
		v.HeaderIDs[c] = sortedIDSet(hids)
		// Frequent tokens of this column feed the B part of outSim.
		if rows > 0 {
			for w, n := range counts {
				if n >= freqTokenMinCount && float64(n) >= freqTokenMinFrac*float64(rows) {
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

// HeaderRowCount returns the number of header rows, read off the view's
// own header cells when it has columns, so the hot loops need not load
// the table.
func (v *TableView) HeaderRowCount() int {
	if v.NumCols == 0 {
		return len(v.Table.HeaderRows)
	}
	return (len(v.hdrOff) - 1) / v.NumCols
}

// headerCell returns the token IDs of header cell cell (r*NumCols+c),
// in cell order.
func (v *TableView) headerCell(cell int) []uint32 {
	lo, hi := v.hdrOff[cell], v.hdrOff[cell+1]
	return v.hdrIDs[lo:hi:hi]
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
