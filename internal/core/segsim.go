package core

import (
	"math"
	"slices"

	"wwt/internal/slicex"
)

// This file implements the paper's central similarity machinery (§3.2.1,
// §3.2.2): the two-part segmented similarity SegSim of Eq. 1 and the
// coverage feature Cover. A query column Qℓ is split into a prefix P and a
// suffix S; one part is pinned to a specific header row of the column
// (inSim), the other gathers support from the rest of the table (outSim)
// across five parts — title T, context C, other header rows of the column
// Hc, other columns' headers in the same row Hr, and frequent body content
// B — each with its own reliability p_i. A token matching several parts
// scores the soft-max 1 - Π(1 - p_i).

// idfMemo is a build's view of its corpus statistics: it resolves each
// distinct token through the bound CorpusStats once and answers every
// later lookup of the token from its maps. A token's IDF is one number
// per generation, and the query analysis and every candidate table's
// header cells ask for the same few tokens, so a build pays one
// statistics lookup (one per live segment, on the index) per distinct
// token instead of one per (table, header cell) occurrence. Query tokens
// are resolved by string; header tokens by their ID in the build's
// interner, falling back to the string on the ID's first request, so a
// header token the query already resolved is not looked up again. The
// memo is arena state, not a cache: reset clears it at the start of every
// build, so it never outlives the build's pinned statistics, and a warm
// arena keeps its maps' storage.
type idfMemo struct {
	stats CorpusStats
	idf   map[string]float64
	byID  map[uint32]float64
}

// reset empties the memo and binds it to stats.
func (m *idfMemo) reset(stats CorpusStats) {
	if m.idf == nil {
		m.idf = make(map[string]float64)
		m.byID = make(map[uint32]float64)
	}
	clear(m.idf)
	clear(m.byID)
	m.stats = stats
}

// IDF returns the bound statistics' IDF of tok, looking it up there only
// on the token's first request since reset.
func (m *idfMemo) IDF(tok string) float64 {
	x, ok := m.idf[tok]
	if !ok {
		x = m.stats.IDF(tok)
		m.idf[tok] = x
	}
	return x
}

// idfOf is IDF for the token with ID id in in, which must be the one
// interner of every ID the memo sees between two resets.
func (m *idfMemo) idfOf(id uint32, in *Interner) float64 {
	x, ok := m.byID[id]
	if !ok {
		x = m.IDF(in.str(id))
		m.byID[id] = x
	}
	return x
}

// headerWeights is the per-build half of a view's header analysis: the
// TF-IDF weight of every header token within its cell and every header
// cell's L2 norm, under the build's corpus statistics — the only corpus
// statistics a table's analysis reads (inSim's cosine, §3.2.1). Keeping
// them out of the view is what lets one cached view serve every
// generation. A build weighs a header cell only when inSimCosine or
// unsegScores first reads it — a cell that shares no token with the query
// is never read — into its scratch, reading every IDF through the build's
// memo, so a warm scratch weighs a table without allocating and without a
// statistics lookup for a token an earlier table or the query already
// resolved.
type headerWeights struct {
	v       *TableView
	memo    *idfMemo
	w       []float64 // w[i]: the weight of hdrIDs[i]'s token in its cell
	norm    []float64 // norm[cell]: L2 norm of header cell r*NumCols+c
	weighed []bool    // weighed[cell]: w and norm hold the cell's values
}

// reset binds hw to view v under the statistics memo is bound to, with no
// cell weighed yet.
func (hw *headerWeights) reset(v *TableView, memo *idfMemo) {
	hw.v, hw.memo = v, memo
	cells := len(v.hdrOff) - 1
	hw.w = slicex.Grow(hw.w, len(v.hdrIDs))
	hw.norm = slicex.Grow(hw.norm, cells)
	hw.weighed = slicex.GrowClear(hw.weighed, cells)
}

// weigh fills the weights and norm of header cell cell unless an earlier
// read did. A token's weight is its IDF added once per occurrence in the
// cell, and the cell's norm sums the squared weights of all its tokens in
// first-occurrence order: the same additions in the same order as a
// per-cell TF-IDF map built token by token, so every float is
// bit-identical to it (FuzzHeaderWeights keeps that map as the oracle).
func (hw *headerWeights) weigh(cell int) {
	if hw.weighed[cell] {
		return
	}
	hw.weighed[cell] = true
	v := hw.v
	lo := int(v.hdrOff[cell])
	toks := v.headerCell(cell)
	var n2 float64
	for i, w := range toks {
		if j := slices.Index(toks[:i], w); j >= 0 {
			hw.w[lo+i] = hw.w[lo+j]
			continue
		}
		idf := hw.memo.idfOf(w, v.in)
		var x float64
		for _, u := range toks[i:] {
			if u == w {
				x += idf
			}
		}
		hw.w[lo+i] = x
		n2 += x * x
	}
	hw.norm[cell] = sqrt(n2)
}

// weight returns the weight of the token with ID id in header cell cell,
// which must hold it, weighing the cell on first read.
func (hw *headerWeights) weight(cell int, id uint32) float64 {
	hw.weigh(cell)
	return hw.w[int(hw.v.hdrOff[cell])+slices.Index(hw.v.headerCell(cell), id)]
}

// queryTokens is a build's integer form of one query column: ids[i] is
// token i's ID in the build's interner (NoID while no view holds it),
// first[i] the position of the token's first occurrence in the column, so
// two positions hold the same token exactly when their first agree, and
// hits the column's hit masks over the header cells of the view being
// scored.
type queryTokens struct {
	ids   []uint32
	first []int32
	hits  hitMasks
}

// reset fills q for the tokens of one query column, every ID NoID.
func (q *queryTokens) reset(toks []string) {
	q.ids = slicex.Grow(q.ids, len(toks))
	q.first = slicex.Grow(q.first, len(toks))
	for i, w := range toks {
		q.ids[i] = NoID
		q.first[i] = int32(slices.Index(toks, w))
	}
}

// resolve looks up in in every token still NoID. IDs never change once
// assigned, so only a token no view had interned at the last resolve can
// change; a view fetched since may have interned it.
func (q *queryTokens) resolve(toks []string, in *Interner) {
	for i, id := range q.ids {
		if id == NoID {
			q.ids[i] = in.Lookup(toks[i])
		}
	}
}

// hitMasks holds one query column's hit masks over the header cells of
// one view: the mask of cell r*NumCols+c is words[cell*w:(cell+1)*w], and
// its bit k (word k/64, bit k%64) is set when query token k occurs in the
// cell. A column of m tokens takes w = ⌈m/64⌉ words per cell.
type hitMasks struct {
	w     int
	words []uint64
}

// fill computes the hit masks of the query tokens ids over v's header
// cells. A NoID token is in no cell, since every header token is
// interned.
func (h *hitMasks) fill(v *TableView, ids []uint32) {
	cells := len(v.hdrOff) - 1
	h.w = (len(ids) + 63) / 64
	h.words = slicex.GrowClear(h.words, cells*h.w)
	for cell := 0; cell < cells; cell++ {
		mask := h.words[cell*h.w : (cell+1)*h.w]
		for _, id := range v.headerCell(cell) {
			for k, q := range ids {
				if q == id {
					mask[k>>6] |= 1 << (k & 63)
				}
			}
		}
	}
}

// has reports whether header cell cell holds query token k.
func (h *hitMasks) has(cell, k int) bool {
	return h.words[cell*h.w+k>>6]&(1<<(k&63)) != 0
}

// any reports whether header cell cell holds a query token of [a, b).
func (h *hitMasks) any(cell, a, b int) bool {
	mask := h.words[cell*h.w : (cell+1)*h.w]
	for a < b {
		word := mask[a>>6] >> (a & 63)
		if n := b - a; n < 64-(a&63) {
			word &= 1<<n - 1
		}
		if word != 0 {
			return true
		}
		a = (a>>6 + 1) << 6
	}
	return false
}

// firstRow returns the first header row of v whose cell in column c holds
// query token k, or -1.
func (h *hitMasks) firstRow(v *TableView, c, k int) int {
	for r := 0; r < v.HeaderRowCount(); r++ {
		if h.has(r*v.NumCols+c, k) {
			return r
		}
	}
	return -1
}

// otherRowsHave reports whether query token k occurs in column c of v in
// a header row other than r (the Hc part of outSim).
func (h *hitMasks) otherRowsHave(v *TableView, r, c, k int) bool {
	for rr := 0; rr < v.HeaderRowCount(); rr++ {
		if rr != r && h.has(rr*v.NumCols+c, k) {
			return true
		}
	}
	return false
}

// otherColsHave reports whether query token k occurs in header row r of v
// in a column other than c (the Hr part of outSim).
func (h *hitMasks) otherColsHave(v *TableView, r, c, k int) bool {
	for cc := 0; cc < v.NumCols; cc++ {
		if cc != c && h.has(r*v.NumCols+cc, k) {
			return true
		}
	}
	return false
}

// segScores returns SegSim and Cover for query column qc against column c
// of view v. qt is qc's integer form with its hit masks over v's header
// cells, and hw is bound to v under the build's statistics. Both maximize
// over header rows and over all prefix/suffix segmentations with either
// part pinned to the header (the pinned part must share a token with the
// header row, so a row whose cell holds no query token is skipped).
// Headerless tables score zero — table-level matches must not count for
// unspecific columns.
func segScores(qc *QueryColumn, qt *queryTokens, v *TableView, hw *headerWeights, c int, p *Params) (segSim, cover float64) {
	m := len(qc.Tokens)
	if m == 0 || qc.NormSq == 0 || v.HeaderRowCount() == 0 || c >= v.NumCols {
		return 0, 0
	}
	if p.Unsegmented {
		return unsegScores(qc, qt, v, hw, c)
	}
	h := &qt.hits
	for r := 0; r < v.HeaderRowCount(); r++ {
		cell := r*v.NumCols + c
		if !h.any(cell, 0, m) {
			continue
		}
		for k := 0; k <= m; k++ {
			// Orientation A: P = tokens[0:k] pinned to header, S = rest out.
			if k > 0 && h.any(cell, 0, k) {
				in := inSimCosine(qc, qt, 0, k, hw, cell)
				inCov := inSimCover(qc, h, 0, k, cell)
				out := outSim(qc, qt, k, m, v, r, c)
				wIn := mass(qc, 0, k) / qc.NormSq
				wOut := mass(qc, k, m) / qc.NormSq
				if s := wIn*in + wOut*out; s > segSim {
					segSim = s
				}
				if s := wIn*inCov + wOut*out; s > cover {
					cover = s
				}
			}
			// Orientation B: S = tokens[k:m] pinned to header, P = rest out.
			if k < m && h.any(cell, k, m) {
				in := inSimCosine(qc, qt, k, m, hw, cell)
				inCov := inSimCover(qc, h, k, m, cell)
				out := outSim(qc, qt, 0, k, v, r, c)
				wIn := mass(qc, k, m) / qc.NormSq
				wOut := mass(qc, 0, k) / qc.NormSq
				if s := wIn*in + wOut*out; s > segSim {
					segSim = s
				}
				if s := wIn*inCov + wOut*out; s > cover {
					cover = s
				}
			}
		}
	}
	return segSim, cover
}

// unsegScores is the §5.2 unsegmented comparison model: the whole query is
// matched against the column's concatenated header rows with a plain
// TF-IDF cosine (and coverage fraction); no segmentation, no outSim. A
// column whose header holds no query token scores (0, 0), the value the
// cosine and the coverage take with nothing in common, without weighing
// its cells.
//
// The header vector of the concatenation gives each distinct token the
// sum of its per-row cell weights (unsegWeight). Every sum runs in
// deterministic first-occurrence order (header rows ascending, tokens in
// cell order; query tokens in query order), so repeated builds are
// bit-identical; the linear scans over the few header tokens keep the
// comparison allocation-free.
func unsegScores(qc *QueryColumn, qt *queryTokens, v *TableView, hw *headerWeights, c int) (float64, float64) {
	m, h := len(qc.Tokens), &qt.hits
	hit := false
	for r := 0; r < v.HeaderRowCount() && !hit; r++ {
		hit = h.any(r*v.NumCols+c, 0, m)
	}
	if !hit {
		return 0, 0
	}
	var hn2, dot, covered float64
	for r := 0; r < v.HeaderRowCount(); r++ {
		toks := v.headerCell(r*v.NumCols + c)
		for i, w := range toks {
			if slices.Contains(toks[:i], w) || inEarlierRow(v, r, c, w) {
				continue
			}
			x := unsegWeight(v, hw, c, r, w)
			hn2 += x * x
		}
	}
	var qn2 float64
	for i := range qc.Tokens {
		f := qt.first[i]
		if int(f) != i {
			continue
		}
		var x float64
		for j := i; j < m; j++ {
			if qt.first[j] == f {
				x += mathSqrt(qc.TI2[j])
			}
		}
		qn2 += x * x
		if r := h.firstRow(v, c, i); r >= 0 {
			dot += x * unsegWeight(v, hw, c, r, qt.ids[i])
		}
	}
	for i := range qc.Tokens {
		if h.firstRow(v, c, i) >= 0 {
			covered += qc.TI2[i]
		}
	}
	if qn2 == 0 || hn2 == 0 || qc.NormSq == 0 {
		return 0, 0
	}
	return dot / (mathSqrt(qn2) * mathSqrt(hn2)), covered / qc.NormSq
}

// unsegWeight returns the weight of w, which header row r of column c
// holds, in the concatenated header rows of the column: its cell weights
// summed in row order from the first row that holds it, r.
func unsegWeight(v *TableView, hw *headerWeights, c, r int, w uint32) (x float64) {
	for ; r < v.HeaderRowCount(); r++ {
		if cell := r*v.NumCols + c; slices.Contains(v.headerCell(cell), w) {
			x += hw.weight(cell, w)
		}
	}
	return x
}

// inEarlierRow reports whether w occurs in column c of a header row
// above r.
func inEarlierRow(v *TableView, r, c int, w uint32) bool {
	for rr := 0; rr < r; rr++ {
		if slices.Contains(v.headerCell(rr*v.NumCols+c), w) {
			return true
		}
	}
	return false
}

func mathSqrt(x float64) float64 { return math.Sqrt(x) }

// mass returns ‖tokens[a:b]‖² = Σ TI(w)².
func mass(qc *QueryColumn, a, b int) float64 {
	var s float64
	for i := a; i < b; i++ {
		s += qc.TI2[i]
	}
	return s
}

// inSimCosine is the TF-IDF cosine between the pinned query part
// tokens[a:b] and header cell cell, under the build's header weights hw.
func inSimCosine(qc *QueryColumn, qt *queryTokens, a, b int, hw *headerWeights, cell int) float64 {
	if len(hw.v.headerCell(cell)) == 0 || a >= b {
		return 0
	}
	hw.weigh(cell)
	hnorm := hw.norm[cell]
	if hnorm == 0 {
		return 0
	}
	// Query-part vector: TI(w) per occurrence, summed in occurrence order.
	// Accumulate in first-occurrence token order, never map order: feature
	// extraction must be bit-deterministic so repeated builds — pooled
	// arena vs fresh — sum identically.
	var dot, qn2 float64
	for i := a; i < b; i++ {
		f := qt.first[i]
		if slices.Contains(qt.first[a:i], f) {
			continue
		}
		var x float64
		for j := i; j < b; j++ {
			if qt.first[j] == f {
				x += math.Sqrt(qc.TI2[j])
			}
		}
		qn2 += x * x
		if qt.hits.has(cell, i) {
			dot += x * hw.weight(cell, qt.ids[i])
		}
	}
	if qn2 == 0 {
		return 0
	}
	return dot / (math.Sqrt(qn2) * hnorm)
}

// inSimCover is the Cover variant of inSim (§3.2.2): the TI²-weighted
// fraction of the pinned part's tokens that appear in the header cell.
func inSimCover(qc *QueryColumn, h *hitMasks, a, b, cell int) float64 {
	total := mass(qc, a, b)
	if total == 0 {
		return 0
	}
	var hit float64
	for i := a; i < b; i++ {
		if h.has(cell, i) {
			hit += qc.TI2[i]
		}
	}
	return hit / total
}

// outSim scores the unpinned query part tokens[a:b] against the five
// outside parts with soft-maxed reliabilities (§3.2.1).
func outSim(qc *QueryColumn, qt *queryTokens, a, b int, v *TableView, r, c int) float64 {
	norm := mass(qc, a, b)
	if norm == 0 {
		return 0
	}
	var sum float64
	for i := a; i < b; i++ {
		id := qt.ids[i]
		miss := 1.0
		if v.inTitle(id) {
			miss *= 1 - relTitle
		}
		if cs := v.contextScore(id); cs > 0 {
			// Snippet scores modulate the context reliability (§2.1.2).
			miss *= 1 - relContext*cs
		}
		if qt.hits.otherRowsHave(v, r, c, i) {
			miss *= 1 - relOtherHeaderRow
		}
		if qt.hits.otherColsHave(v, r, c, i) {
			miss *= 1 - relOtherHeaderCol
		}
		if v.inFreqBody(id) {
			miss *= 1 - relBody
		}
		sum += qc.TI2[i] / norm * (1 - miss)
	}
	return sum
}
