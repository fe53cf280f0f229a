package core

import (
	"math"
	"testing"

	"wwt/internal/wtable"
)

// This file keeps the map-based header vectors views used to carry — one
// TF-IDF map and L2 norm per header cell, baked in at view construction —
// with the inSim cosine and the unsegmented comparison that read them, as
// the oracle for the per-build headerWeights that replaced them.

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
			toks := v.headerCell(r, c)
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

// oracleSegScores is segScores over the map-based header vectors.
func oracleSegScores(qc *QueryColumn, ids []uint32, v *TableView, vecs [][]map[string]float64, norms [][]float64, c int, p Params) (segSim, cover float64) {
	m := len(qc.Tokens)
	if m == 0 || qc.NormSq == 0 || v.HeaderRowCount() == 0 || c >= v.NumCols {
		return 0, 0
	}
	if p.Unsegmented {
		return oracleUnsegScores(qc, v, vecs, c)
	}
	for r := 0; r < v.HeaderRowCount(); r++ {
		for k := 0; k <= m; k++ {
			if k > 0 && intersectsHeader(qc.Tokens[:k], v, r, c) {
				in := oracleInSimCosine(qc, 0, k, vecs[r][c], norms[r][c])
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
			if k < m && intersectsHeader(qc.Tokens[k:], v, r, c) {
				in := oracleInSimCosine(qc, k, m, vecs[r][c], norms[r][c])
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

// oracleUnsegScores is the map-based unsegmented comparison.
func oracleUnsegScores(qc *QueryColumn, v *TableView, vecs [][]map[string]float64, c int) (float64, float64) {
	vec := make(map[string]float64)
	var order []string
	for r := 0; r < v.HeaderRowCount(); r++ {
		hv := vecs[r][c]
		toks := v.headerCell(r, c)
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
// token lists (cells[r][c]), skipping normalization.
func headerView(cells [][][]string) *TableView {
	t := &wtable.Table{HeaderRows: make([]wtable.Row, len(cells))}
	v := &TableView{Table: t, in: NewInterner()}
	if len(cells) > 0 {
		v.NumCols = len(cells[0])
	}
	v.hdrOff = []int32{0}
	for _, row := range cells {
		for _, toks := range row {
			v.hdrToks = append(v.hdrToks, toks...)
			v.hdrOff = append(v.hdrOff, int32(len(v.hdrToks)))
		}
	}
	return v
}

// FuzzHeaderWeights checks the per-build header weights, and segScores
// over them with Unsegmented off and on, against the map-based header
// vectors bit for bit, over random header token lists with repeats,
// random IDF tables and random queries. Like a build, it analyzes the
// query and weighs two views, one after the other, through one IDF memo
// and one reused headerWeights, so the second view reads IDFs the query
// and the first view resolved.
func FuzzHeaderWeights(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 2, 3, 0, 0, 1, 4, 1, 1, 2, 0, 0, 9, 200, 31, 7, 3, 0, 1, 0, 2})
	f.Add([]byte{1, 3, 4, 2, 2, 2, 3, 1, 0, 3, 5, 250, 0, 255, 1, 128, 64, 5, 4, 4, 0, 5, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		src := byteSource(data)
		stats := mapStats{}
		for _, w := range fuzzVocab[:len(fuzzVocab)-1] {
			// Mix exact small values, zero and awkward fractions.
			switch src.next(4) {
			case 0:
				stats[w] = 0
			case 1:
				stats[w] = float64(1 + src.next(8))
			default:
				stats[w] = float64(1+src.next(256)) / float64(1+src.next(97)) * math.Pi
			}
		}
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
			v := headerView(cells)
			ids := make([]uint32, len(qc.Tokens))
			v.lookupIDs(qc.Tokens, ids)

			hw.weigh(v, &memo)
			vecs, norms := oracleHeaderVecs(v, stats)
			for r := 0; r < rows; r++ {
				for c := 0; c < cols; c++ {
					if got, want := hw.norm[r*cols+c], norms[r][c]; math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("view %d cell (%d,%d) %v: norm %v, oracle %v", view, r, c, cells[r][c], got, want)
					}
					for _, w := range cells[r][c] {
						if got, _ := hw.weight(v, r, c, w); math.Float64bits(got) != math.Float64bits(vecs[r][c][w]) {
							t.Fatalf("view %d cell (%d,%d) %v: weight of %q %v, oracle %v", view, r, c, cells[r][c], w, got, vecs[r][c][w])
						}
					}
				}
			}
			for _, unseg := range []bool{false, true} {
				p := DefaultParams()
				p.Unsegmented = unseg
				for c := 0; c < cols; c++ {
					seg, cov := segScores(&qc, ids, v, &hw, c, p)
					wseg, wcov := oracleSegScores(&qc, ids, v, vecs, norms, c, p)
					if math.Float64bits(seg) != math.Float64bits(wseg) || math.Float64bits(cov) != math.Float64bits(wcov) {
						t.Fatalf("view %d unsegmented=%v column %d, query %v, header %v: (%v, %v), oracle (%v, %v)",
							view, unseg, c, qc.Tokens, cells, seg, cov, wseg, wcov)
					}
				}
			}
		}
	})
}
