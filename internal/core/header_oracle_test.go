package core

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"wwt/internal/text"

	"wwt/internal/wtable"
)

// This file keeps the string implementation of the header half of the
// stage-1 features as the oracle of the interned one: the map-based
// header vectors views used to carry — one TF-IDF map and L2 norm per
// header cell, baked in at view construction — with the inSim cosine and
// the unsegmented comparison that read them, and the string matching of
// query tokens against header cells (intersectsHeader, inSimCover,
// outSim's Hc and Hr parts, PartMatches) that the hit masks replaced.

// mapStats is a CorpusStats over an explicit IDF table.
type mapStats map[string]float64

func (s mapStats) IDF(w string) float64 { return s[w] }

// oracleHeaderVecs builds the per-cell TF-IDF maps and norms the views
// held: vecs[r][c][w] sums IDF(w) once per occurrence, and the norm sums
// the squared weights in first-occurrence order.
func oracleHeaderVecs(v *TableView, stats CorpusStats) ([][]map[string]float64, [][]float64) {
	vecs := make([][]map[string]float64, v.HeaderRowCount())
	norms := make([][]float64, v.HeaderRowCount())
	for r := range vecs {
		vecs[r] = make([]map[string]float64, v.NumCols)
		norms[r] = make([]float64, v.NumCols)
		for c := 0; c < v.NumCols; c++ {
			toks := headerStrings(v, r, c)
			vec := make(map[string]float64, len(toks))
			for _, w := range toks {
				vec[w] += stats.IDF(w)
			}
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
			vecs[r][c] = vec
			norms[r][c] = sqrt(n2)
		}
	}
	return vecs, norms
}

// oracleSegScores is segScores over the map-based header vectors, with
// every query token matched against the header cells by string.
func oracleSegScores(qc *QueryColumn, v *TableView, vecs [][]map[string]float64, norms [][]float64, c int, p Params) (segSim, cover float64) {
	m := len(qc.Tokens)
	if m == 0 || qc.NormSq == 0 || v.HeaderRowCount() == 0 || c >= v.NumCols {
		return 0, 0
	}
	if p.Unsegmented {
		return oracleUnsegScores(qc, v, vecs, c)
	}
	for r := 0; r < v.HeaderRowCount(); r++ {
		for k := 0; k <= m; k++ {
			if k > 0 && strIntersectsHeader(qc.Tokens[:k], v, r, c) {
				in := oracleInSimCosine(qc, 0, k, vecs[r][c], norms[r][c])
				inCov := strInSimCover(qc, 0, k, v, r, c)
				out := strOutSim(qc, k, m, v, r, c)
				wIn := mass(qc, 0, k) / qc.NormSq
				wOut := mass(qc, k, m) / qc.NormSq
				if s := wIn*in + wOut*out; s > segSim {
					segSim = s
				}
				if s := wIn*inCov + wOut*out; s > cover {
					cover = s
				}
			}
			if k < m && strIntersectsHeader(qc.Tokens[k:], v, r, c) {
				in := oracleInSimCosine(qc, k, m, vecs[r][c], norms[r][c])
				inCov := strInSimCover(qc, k, m, v, r, c)
				out := strOutSim(qc, 0, k, v, r, c)
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

// oracleUnsegScores is the map-based unsegmented comparison.
func oracleUnsegScores(qc *QueryColumn, v *TableView, vecs [][]map[string]float64, c int) (float64, float64) {
	vec := make(map[string]float64)
	var order []string
	for r := 0; r < v.HeaderRowCount(); r++ {
		hv := vecs[r][c]
		toks := headerStrings(v, r, c)
		for i, w := range toks {
			first := true
			for j := 0; j < i; j++ {
				if toks[j] == w {
					first = false
					break
				}
			}
			if !first {
				continue
			}
			if _, seen := vec[w]; !seen {
				order = append(order, w)
			}
			vec[w] += hv[w]
		}
	}
	if len(vec) == 0 {
		return 0, 0
	}
	var hn2, dot, covered float64
	for _, w := range order {
		x := vec[w]
		hn2 += x * x
	}
	qvec := make(map[string]float64, len(qc.Tokens))
	for i, w := range qc.Tokens {
		qvec[w] += mathSqrt(qc.TI2[i])
	}
	var qn2 float64
	for _, w := range qc.Tokens {
		x, ok := qvec[w]
		if !ok {
			continue
		}
		delete(qvec, w)
		qn2 += x * x
		if y, ok := vec[w]; ok {
			dot += x * y
		}
	}
	for i, w := range qc.Tokens {
		if _, ok := vec[w]; ok {
			covered += qc.TI2[i]
		}
	}
	if qn2 == 0 || hn2 == 0 || qc.NormSq == 0 {
		return 0, 0
	}
	return dot / (mathSqrt(qn2) * mathSqrt(hn2)), covered / qc.NormSq
}

// oracleInSimCosine is the map-based inSim cosine against one header
// cell's vector and norm.
func oracleInSimCosine(qc *QueryColumn, a, b int, hvec map[string]float64, hnorm float64) float64 {
	if len(hvec) == 0 || hnorm == 0 || a >= b {
		return 0
	}
	qvec := make(map[string]float64, b-a)
	for i := a; i < b; i++ {
		qvec[qc.Tokens[i]] += math.Sqrt(qc.TI2[i])
	}
	var dot, qn2 float64
	for i := a; i < b; i++ {
		w := qc.Tokens[i]
		x, ok := qvec[w]
		if !ok {
			continue
		}
		delete(qvec, w)
		qn2 += x * x
		if y, ok := hvec[w]; ok {
			dot += x * y
		}
	}
	if qn2 == 0 {
		return 0
	}
	return dot / (math.Sqrt(qn2) * hnorm)
}

// headerStrings returns the tokens of header cell (r, c) of v as strings.
func headerStrings(v *TableView, r, c int) []string {
	ids := v.headerCell(r*v.NumCols + c)
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = v.in.str(id)
	}
	return out
}

// strHeaderHas reports whether token w occurs in header row r, column c.
func strHeaderHas(v *TableView, r, c int, w string) bool {
	if r < 0 || r >= v.HeaderRowCount() || c < 0 || c >= v.NumCols {
		return false
	}
	return slices.Contains(headerStrings(v, r, c), w)
}

// strOtherHeaderRowsHave reports whether w appears in column c in a header
// row other than r (the Hc part of outSim).
func strOtherHeaderRowsHave(v *TableView, r, c int, w string) bool {
	for rr := 0; rr < v.HeaderRowCount(); rr++ {
		if rr != r && strHeaderHas(v, rr, c, w) {
			return true
		}
	}
	return false
}

// strOtherHeaderColsHave reports whether w appears in header row r in a
// column other than c (the Hr part of outSim).
func strOtherHeaderColsHave(v *TableView, r, c int, w string) bool {
	for cc := 0; cc < v.NumCols; cc++ {
		if cc != c && strHeaderHas(v, r, cc, w) {
			return true
		}
	}
	return false
}

func strIntersectsHeader(tokens []string, v *TableView, r, c int) bool {
	for _, w := range tokens {
		if strHeaderHas(v, r, c, w) {
			return true
		}
	}
	return false
}

// strInSimCover is inSimCover matching the pinned part by string.
func strInSimCover(qc *QueryColumn, a, b int, v *TableView, r, c int) float64 {
	total := mass(qc, a, b)
	if total == 0 {
		return 0
	}
	var hit float64
	for i := a; i < b; i++ {
		if strHeaderHas(v, r, c, qc.Tokens[i]) {
			hit += qc.TI2[i]
		}
	}
	return hit / total
}

// strOutSim is outSim with each query token looked up in v's interner for
// the title, context and body parts and matched by string against the
// other header cells.
func strOutSim(qc *QueryColumn, a, b int, v *TableView, r, c int) float64 {
	norm := mass(qc, a, b)
	if norm == 0 {
		return 0
	}
	var sum float64
	for i := a; i < b; i++ {
		w := qc.Tokens[i]
		id := v.in.Lookup(w)
		miss := 1.0
		if v.inTitle(id) {
			miss *= 1 - relTitle
		}
		if cs := v.contextScore(id); cs > 0 {
			miss *= 1 - relContext*cs
		}
		if strOtherHeaderRowsHave(v, r, c, w) {
			miss *= 1 - relOtherHeaderRow
		}
		if strOtherHeaderColsHave(v, r, c, w) {
			miss *= 1 - relOtherHeaderCol
		}
		if v.inFreqBody(id) {
			miss *= 1 - relBody
		}
		sum += qc.TI2[i] / norm * (1 - miss)
	}
	return sum
}

// strPartMatches is PartMatches matching query tokens by string.
func strPartMatches(qc *QueryColumn, v *TableView, c int) PartMatchReport {
	var rep PartMatchReport
	if c >= v.NumCols {
		return rep
	}
	for r := 0; r < v.HeaderRowCount(); r++ {
		if strIntersectsHeader(qc.Tokens, v, r, c) {
			rep.AnyInSim = true
		}
	}
	if !rep.AnyInSim {
		return rep
	}
	for _, w := range qc.Tokens {
		id := v.in.Lookup(w)
		rep.Parts[0] = rep.Parts[0] || v.inTitle(id)
		rep.Parts[1] = rep.Parts[1] || v.contextScore(id) > 0
		for r := 0; r < v.HeaderRowCount(); r++ {
			rep.Parts[2] = rep.Parts[2] || strOtherHeaderRowsHave(v, r, c, w)
			rep.Parts[3] = rep.Parts[3] || strOtherHeaderColsHave(v, r, c, w)
		}
		rep.Parts[4] = rep.Parts[4] || v.inFreqBody(id)
	}
	return rep
}

// byteSource turns fuzz input into bounded choices; an exhausted input
// reads as zeros.
type byteSource []byte

func (s *byteSource) next(n int) int {
	if len(*s) == 0 {
		return 0
	}
	b := (*s)[0]
	*s = (*s)[1:]
	return int(b) % n
}

// fuzzVocab is small so header cells and queries repeat tokens often;
// "zz" never gets an IDF entry.
var fuzzVocab = []string{"aa", "bb", "cc", "dd", "ee", "zz"}

// headerView builds a view whose header cells hold exactly the given
// token lists (cells[r][c]), interned into in, skipping normalization.
func headerView(in *Interner, cells [][][]string) *TableView {
	t := &wtable.Table{HeaderRows: make([]wtable.Row, len(cells))}
	v := &TableView{Table: t, in: in}
	if len(cells) > 0 {
		v.NumCols = len(cells[0])
	}
	v.hdrOff = []int32{0}
	for _, row := range cells {
		for _, toks := range row {
			for _, w := range toks {
				v.hdrIDs = append(v.hdrIDs, in.Intern(w))
			}
			v.hdrOff = append(v.hdrOff, int32(len(v.hdrIDs)))
		}
	}
	return v
}

// fuzzIDFs draws an IDF per token: exact small values, zero and awkward
// fractions.
func fuzzIDFs(src *byteSource, toks []string) mapStats {
	stats := mapStats{}
	for _, w := range toks {
		switch src.next(4) {
		case 0:
			stats[w] = 0
		case 1:
			stats[w] = float64(1 + src.next(8))
		default:
			stats[w] = float64(1+src.next(256)) / float64(1+src.next(97)) * math.Pi
		}
	}
	return stats
}

// checkSegScores compares segScores of qc against every column of v, with
// Unsegmented off and on, to the string oracle bit for bit. Each mode
// weighs v's header cells afresh through hw, as they are read, with IDFs
// from memo.
func checkSegScores(t *testing.T, qc *QueryColumn, v *TableView, hw *headerWeights, memo *idfMemo, stats CorpusStats, label string) {
	t.Helper()
	qt := queryTokensFor(qc, v)
	vecs, norms := oracleHeaderVecs(v, stats)
	for _, unseg := range []bool{false, true} {
		p := DefaultParams()
		p.Unsegmented = unseg
		hw.reset(v, memo)
		for c := 0; c < v.NumCols; c++ {
			seg, cov := segScores(qc, qt, v, hw, c, &p)
			wseg, wcov := oracleSegScores(qc, v, vecs, norms, c, p)
			if math.Float64bits(seg) != math.Float64bits(wseg) || math.Float64bits(cov) != math.Float64bits(wcov) {
				t.Fatalf("%s unsegmented=%v column %d, query %v: (%v, %v), oracle (%v, %v)",
					label, unseg, c, qc.Tokens, seg, cov, wseg, wcov)
			}
		}
	}
}

// FuzzHeaderWeights checks the per-build header weights, and segScores
// over them with Unsegmented off and on, against the map-based header
// vectors bit for bit, over random header token lists with repeats,
// random IDF tables and random queries. Like a build, it analyzes the
// query and weighs two views of one interner, one after the other,
// through one IDF memo and one reused headerWeights, so the second view
// reads IDFs the query and the first view resolved; segScores weighs the
// cells it reads, and every cell is then weighed and checked.
func FuzzHeaderWeights(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 2, 3, 0, 0, 1, 4, 1, 1, 2, 0, 0, 9, 200, 31, 7, 3, 0, 1, 0, 2})
	f.Add([]byte{1, 3, 4, 2, 2, 2, 3, 1, 0, 3, 5, 250, 0, 255, 1, 128, 64, 5, 4, 4, 0, 5, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		src := byteSource(data)
		stats := fuzzIDFs(&src, fuzzVocab[:len(fuzzVocab)-1])
		var memo idfMemo
		memo.reset(stats)
		qc := QueryColumn{}
		for k := 1 + src.next(5); k > 0; k-- {
			w := fuzzVocab[src.next(len(fuzzVocab))]
			ti := memo.IDF(w)
			qc.Tokens = append(qc.Tokens, w)
			qc.TI2 = append(qc.TI2, ti*ti)
			qc.NormSq += ti * ti
		}
		in := NewInterner()
		var hw headerWeights
		for view := 0; view < 2; view++ {
			rows, cols := 1+src.next(3), 1+src.next(3)
			cells := make([][][]string, rows)
			for r := range cells {
				cells[r] = make([][]string, cols)
				for c := range cells[r] {
					for k := src.next(5); k > 0; k-- {
						cells[r][c] = append(cells[r][c], fuzzVocab[src.next(len(fuzzVocab))])
					}
				}
			}
			v := headerView(in, cells)
			label := "view " + string(rune('0'+view))
			checkSegScores(t, &qc, v, &hw, &memo, stats, label)

			vecs, norms := oracleHeaderVecs(v, stats)
			for r := 0; r < rows; r++ {
				for c := 0; c < cols; c++ {
					cell := r*cols + c
					hw.weigh(cell)
					if got, want := hw.norm[cell], norms[r][c]; math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s cell (%d,%d) %v: norm %v, oracle %v", label, r, c, cells[r][c], got, want)
					}
					for _, w := range cells[r][c] {
						if got := hw.weight(cell, in.Lookup(w)); math.Float64bits(got) != math.Float64bits(vecs[r][c][w]) {
							t.Fatalf("%s cell (%d,%d) %v: weight of %q %v, oracle %v", label, r, c, cells[r][c], w, got, vecs[r][c][w])
						}
					}
				}
			}
		}
	})
}

// TestHitMasks pins the mask tests against their bits: for masks of one
// to three words per cell with random bits, has(cell, k) is bit k and
// any(cell, a, b) holds exactly when one of the bits a..b-1 is set, for
// every range.
func TestHitMasks(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for trial := 0; trial < 200; trial++ {
		m := 1 + r.Intn(192)
		h := hitMasks{w: (m + 63) / 64}
		const cells = 3
		bits := make([][]bool, cells)
		h.words = make([]uint64, cells*h.w)
		for cell := range bits {
			bits[cell] = make([]bool, m)
			for k := range bits[cell] {
				if r.Intn(1+trial%40) == 0 {
					bits[cell][k] = true
					h.words[cell*h.w+k/64] |= 1 << (k % 64)
				}
			}
		}
		for cell := 0; cell < cells; cell++ {
			for a := 0; a <= m; a++ {
				if a < m && h.has(cell, a) != bits[cell][a] {
					t.Fatalf("m=%d cell %d: has(%d) = %v, bit %v", m, cell, a, !bits[cell][a], bits[cell][a])
				}
				for b := a; b <= m; b++ {
					if got, want := h.any(cell, a, b), slices.Contains(bits[cell][a:b], true); got != want {
						t.Fatalf("m=%d cell %d: any(%d, %d) = %v, want %v", m, cell, a, b, got, want)
					}
				}
			}
		}
	}
}

// segVocab holds words that normalize to one token each; the last never
// occurs in a table, so its ID stays NoID.
var segVocab = []string{"country", "currency", "capital", "city", "river", "name", "zyzzyva"}

// FuzzSegScoresMasks checks segScores and Cover over interned header IDs
// and hit masks against the string implementation bit for bit, and
// PartMatches against its string form, on views NewTableView builds:
// header rows one to three, header cells empty or holding repeated words,
// title, context and body tokens for outSim's other parts, and queries of
// one to five words or, one time in four, of 61 to 140 words, so a hit
// mask spans two or three words per cell; query words repeat, and one
// never occurs in any table. Two views share one interner, IDF memo and
// header weights, as in a build.
func FuzzSegScoresMasks(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 0, 3, 1, 4, 2, 2, 1, 0, 5, 3, 2, 2, 1, 3, 0, 4, 1, 6, 2, 0, 1})
	f.Add([]byte{0, 3, 2, 1, 0, 90, 4, 4, 3, 2, 1, 0, 1, 2, 3, 4, 5, 6, 0, 2, 2, 1, 1, 4})
	f.Add([]byte{3, 0, 1, 2, 2, 4, 4, 0, 0, 5, 5, 6, 1, 1, 3, 3, 3, 0, 2, 2, 4, 1, 0, 3, 2, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		src := byteSource(data)
		toks := make([]string, len(segVocab))
		for i, w := range segVocab {
			n := text.Normalize(w)
			if len(n) != 1 {
				t.Fatalf("%q normalizes to %v, want one token", w, n)
			}
			toks[i] = n[0]
		}
		stats := fuzzIDFs(&src, toks)
		word := func() string { return segVocab[src.next(len(segVocab))] }
		// A long query is mostly the word no table holds, so its hits are
		// sparse and a mask's word boundaries matter.
		qword := word
		words := func(max int) string {
			var ws []string
			for k := src.next(max + 1); k > 0; k-- {
				ws = append(ws, word())
			}
			return strings.Join(ws, " ")
		}
		m := 1 + src.next(5)
		if src.next(4) == 0 {
			m = 61 + src.next(80)
			qword = func() string {
				if src.next(4) != 0 {
					return segVocab[len(segVocab)-1]
				}
				return word()
			}
		}
		qws := make([]string, m)
		for i := range qws {
			qws[i] = qword()
		}
		var memo idfMemo
		memo.reset(stats)
		qc := AnalyzeQuery([]string{strings.Join(qws, " ")}, &memo)[0]

		in := NewInterner()
		var hw headerWeights
		for view := 0; view < 2; view++ {
			rows, cols := 1+src.next(3), 1+src.next(4)
			tb := &wtable.Table{ID: "v"}
			for r := 0; r < rows; r++ {
				hdr := make([]string, cols)
				for c := range hdr {
					hdr[c] = words(4)
				}
				tb.HeaderRows = append(tb.HeaderRows, row(hdr...))
			}
			for r := src.next(5); r > 0; r-- {
				body := make([]string, cols)
				for c := range body {
					body[c] = words(2)
				}
				tb.BodyRows = append(tb.BodyRows, row(body...))
			}
			tb.TitleRows = []wtable.Row{row(words(2))}
			tb.Context = []wtable.Snippet{{Text: words(3), Score: float64(src.next(5)) / 4}}
			v := NewTableView(tb, in)
			label := "view " + string(rune('0'+view))
			checkSegScores(t, &qc, v, &hw, &memo, stats, label)
			for c := 0; c < cols; c++ {
				if got, want := PartMatches(&qc, v, c), strPartMatches(&qc, v, c); got != want {
					t.Fatalf("%s column %d, query %v: PartMatches %+v, string form %+v", label, c, qc.Tokens, got, want)
				}
			}
		}
	})
}
