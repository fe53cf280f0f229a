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

// headerWeights is the per-build half of a view's header analysis: the
// TF-IDF weight of every header token within its cell and every header
// cell's L2 norm, under the build's corpus statistics — the only corpus
// statistics a table's analysis reads (inSim's cosine, §3.2.1). Keeping
// them out of the view is what lets one cached view serve every
// generation. A build computes them per table into its scratch, so a
// warm scratch weighs a table without allocating.
type headerWeights struct {
	w    []float64 // w[i]: the weight of hdrToks[i]'s token in its cell
	norm []float64 // norm[r*NumCols+c]: L2 norm of header cell (r, c)
}

// weigh fills hw for view v under stats. A token's weight is its IDF
// added once per occurrence in the cell, and a cell's norm sums the
// squared weights in first-occurrence order: the same additions in the
// same order as a per-cell TF-IDF map built token by token, so every
// float is bit-identical to it (FuzzHeaderWeights keeps that map as the
// oracle).
func (hw *headerWeights) weigh(v *TableView, stats CorpusStats) {
	hw.w = slicex.Grow(hw.w, len(v.hdrToks))
	hw.norm = slicex.Grow(hw.norm, len(v.hdrOff)-1)
	for cell := range hw.norm {
		lo, hi := int(v.hdrOff[cell]), int(v.hdrOff[cell+1])
		toks := v.hdrToks[lo:hi]
		var n2 float64
		for i, w := range toks {
			if j := slices.Index(toks[:i], w); j >= 0 {
				hw.w[lo+i] = hw.w[lo+j]
				continue
			}
			idf := stats.IDF(w)
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
}

// weight returns the weight of token w in header cell (r, c), and
// whether the cell holds w.
func (hw *headerWeights) weight(v *TableView, r, c int, w string) (float64, bool) {
	lo, hi := v.headerSpan(r, c)
	if i := slices.Index(v.hdrToks[lo:hi], w); i >= 0 {
		return hw.w[lo+i], true
	}
	return 0, false
}

// segScores returns SegSim and Cover for query column qc against column c
// of view v. ids are qc's token IDs in v's interner (lookupIDs) and hw
// the view's header weights under the build's statistics. Both maximize
// over header rows and over all prefix/suffix segmentations with either
// part pinned to the header (the pinned part must share a token with the
// header row). Headerless tables score zero — table-level matches must
// not count for unspecific columns.
func segScores(qc *QueryColumn, ids []uint32, v *TableView, hw *headerWeights, c int, p Params) (segSim, cover float64) {
	m := len(qc.Tokens)
	if m == 0 || qc.NormSq == 0 || v.HeaderRowCount() == 0 || c >= v.NumCols {
		return 0, 0
	}
	if p.Unsegmented {
		return unsegScores(qc, v, hw, c)
	}
	for r := 0; r < v.HeaderRowCount(); r++ {
		// prefix sums of TI² let every split be O(1) plus the part scans.
		for k := 0; k <= m; k++ {
			// Orientation A: P = tokens[0:k] pinned to header, S = rest out.
			if k > 0 && intersectsHeader(qc.Tokens[:k], v, r, c) {
				in := inSimCosine(qc, 0, k, v, hw, r, c)
				inCov := inSimCover(qc, 0, k, v, r, c)
				out := outSim(qc, ids, k, m, v, r, c, p)
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
			if k < m && intersectsHeader(qc.Tokens[k:], v, r, c) {
				in := inSimCosine(qc, k, m, v, hw, r, c)
				inCov := inSimCover(qc, k, m, v, r, c)
				out := outSim(qc, ids, 0, k, v, r, c, p)
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
// TF-IDF cosine (and coverage fraction); no segmentation, no outSim.
//
// The header vector of the concatenation gives each distinct token the
// sum of its per-row cell weights (unsegWeight). Every sum runs in
// deterministic first-occurrence order (header rows ascending, tokens in
// cell order; query tokens in query order), so repeated builds are
// bit-identical; the linear scans over the few header tokens keep the
// comparison allocation-free.
func unsegScores(qc *QueryColumn, v *TableView, hw *headerWeights, c int) (float64, float64) {
	var hn2, dot, covered float64
	empty := true
	for r := 0; r < v.HeaderRowCount(); r++ {
		toks := v.headerCell(r, c)
		for i, w := range toks {
			if slices.Contains(toks[:i], w) || inEarlierRow(v, r, c, w) {
				continue
			}
			empty = false
			x, _ := unsegWeight(v, hw, c, w)
			hn2 += x * x
		}
	}
	if empty {
		return 0, 0
	}
	var qn2 float64
	for i, w := range qc.Tokens {
		if slices.Contains(qc.Tokens[:i], w) {
			continue
		}
		var x float64
		for j := i; j < len(qc.Tokens); j++ {
			if qc.Tokens[j] == w {
				x += mathSqrt(qc.TI2[j])
			}
		}
		qn2 += x * x
		if y, ok := unsegWeight(v, hw, c, w); ok {
			dot += x * y
		}
	}
	for i, w := range qc.Tokens {
		if _, ok := unsegWeight(v, hw, c, w); ok {
			covered += qc.TI2[i]
		}
	}
	if qn2 == 0 || hn2 == 0 || qc.NormSq == 0 {
		return 0, 0
	}
	return dot / (mathSqrt(qn2) * mathSqrt(hn2)), covered / qc.NormSq
}

// unsegWeight returns the weight of w in the concatenated header rows of
// column c — its cell weights summed in row order — and whether any row
// holds it.
func unsegWeight(v *TableView, hw *headerWeights, c int, w string) (x float64, ok bool) {
	for r := 0; r < v.HeaderRowCount(); r++ {
		if y, in := hw.weight(v, r, c, w); in {
			x += y
			ok = true
		}
	}
	return x, ok
}

// inEarlierRow reports whether w occurs in column c of a header row
// above r.
func inEarlierRow(v *TableView, r, c int, w string) bool {
	for rr := 0; rr < r; rr++ {
		if slices.Contains(v.headerCell(rr, c), w) {
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

func intersectsHeader(tokens []string, v *TableView, r, c int) bool {
	for _, w := range tokens {
		if v.headerHas(r, c, w) {
			return true
		}
	}
	return false
}

// inSimCosine is the TF-IDF cosine between the pinned query part
// tokens[a:b] and header row r of column c, under the build's header
// weights hw.
func inSimCosine(qc *QueryColumn, a, b int, v *TableView, hw *headerWeights, r, c int) float64 {
	lo, hi := v.headerSpan(r, c)
	hnorm := hw.norm[r*v.NumCols+c]
	if lo == hi || hnorm == 0 || a >= b {
		return 0
	}
	// Query-part vector: TI(w) per occurrence, summed in occurrence order.
	// Accumulate in first-occurrence token order, never map order: feature
	// extraction must be bit-deterministic so repeated builds — pooled
	// arena vs fresh — sum identically.
	var dot, qn2 float64
	for i := a; i < b; i++ {
		w := qc.Tokens[i]
		if slices.Contains(qc.Tokens[a:i], w) {
			continue
		}
		var x float64
		for j := i; j < b; j++ {
			if qc.Tokens[j] == w {
				x += math.Sqrt(qc.TI2[j])
			}
		}
		qn2 += x * x
		if y, ok := hw.weight(v, r, c, w); ok {
			dot += x * y
		}
	}
	if qn2 == 0 {
		return 0
	}
	return dot / (math.Sqrt(qn2) * hnorm)
}

// inSimCover is the Cover variant of inSim (§3.2.2): the TI²-weighted
// fraction of the pinned part's tokens that appear in the header row.
func inSimCover(qc *QueryColumn, a, b int, v *TableView, r, c int) float64 {
	total := mass(qc, a, b)
	if total == 0 {
		return 0
	}
	var hit float64
	for i := a; i < b; i++ {
		if v.headerHas(r, c, qc.Tokens[i]) {
			hit += qc.TI2[i]
		}
	}
	return hit / total
}

// outSim scores the unpinned query part tokens[a:b] against the five
// outside parts with soft-maxed reliabilities (§3.2.1). ids are the query
// tokens' IDs in the view's interner.
func outSim(qc *QueryColumn, ids []uint32, a, b int, v *TableView, r, c int, p Params) float64 {
	norm := mass(qc, a, b)
	if norm == 0 {
		return 0
	}
	var sum float64
	for i := a; i < b; i++ {
		w, id := qc.Tokens[i], ids[i]
		miss := 1.0
		if v.inTitle(id) {
			miss *= 1 - p.RelTitle
		}
		if cs := v.contextScore(id); cs > 0 {
			// Snippet scores modulate the context reliability (§2.1.2).
			miss *= 1 - p.RelContext*cs
		}
		if v.otherHeaderRowsHave(r, c, w) {
			miss *= 1 - p.RelOtherHeaderRow
		}
		if v.otherHeaderColsHave(r, c, w) {
			miss *= 1 - p.RelOtherHeaderCol
		}
		if v.inFreqBody(id) {
			miss *= 1 - p.RelBody
		}
		sum += qc.TI2[i] / norm * (1 - miss)
	}
	return sum
}
