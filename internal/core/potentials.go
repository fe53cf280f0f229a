package core

import "strings"

// pmi2 computes the corpus co-occurrence feature of §3.2.3 as the
// per-row average association between H(Qℓ) — corpus tables carrying
// Qℓ's keywords in header or context — and B(cell) — tables carrying the
// cell's words in their content. The measure is the paper's PMI²
//
//	|H ∩ B|² / (|H|·|B|)
//
// or, under the §7 future-work extension, the Dice coefficient
// 2|H∩B| / (|H|+|B|). hDocs is the precomputed, sorted H(Qℓ). toks is a
// caller-owned buffer whose length caps the tokens of a cell passed to
// ContentDocs; it outlives the call so the slice handed through the
// interface does not move a fresh array to the heap on every call.
func pmi2(hDocs []int32, v *TableView, c int, src PMISource, p Params, toks []string) float64 {
	if len(hDocs) == 0 || src == nil {
		return 0
	}
	rows := v.Table.NumBodyRows()
	if rows == 0 {
		return 0
	}
	sample := min(rows, pmiMaxRows)
	var sum float64
	for r := 0; r < sample; r++ {
		// The cell's first len(toks) normalized tokens, read off its
		// interned key.
		cell := toks[:0]
		for key := v.CellKey(r, c); key != "" && len(cell) < len(toks); {
			var w string
			w, key, _ = strings.Cut(key, " ")
			cell = append(cell, w)
		}
		if len(cell) == 0 {
			continue
		}
		bDocs := src.ContentDocs(cell)
		if len(bDocs) == 0 {
			continue
		}
		inter := float64(intersectSize(hDocs, bDocs))
		switch p.Cooccur {
		case CooccurDice:
			sum += 2 * inter / float64(len(hDocs)+len(bDocs))
		default:
			sum += inter * inter / (float64(len(hDocs)) * float64(len(bDocs)))
		}
	}
	return sum / float64(sample)
}

func intersectSize(a, b []int32) int {
	i, j, n := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// tableRelevance computes R(Q,t) of Eq. 2 from the per-(column, query
// column) Cover features: the clipped total fraction of query words
// matched by the table's headers and surroundings.
//
//	R(Q,t) = (1/q) clip(Σ_ℓ max_c Cover(Qℓ,tc), min(q, 1.5))
//
// clip(a,b) is 0 when a < b and a otherwise.
func tableRelevance(feats [][]Features, q int) float64 {
	if q == 0 {
		return 0
	}
	var sum float64
	for ell := 0; ell < q; ell++ {
		best := 0.0
		for c := range feats {
			if feats[c][ell].Cover > best {
				best = feats[c][ell].Cover
			}
		}
		sum += best
	}
	threshold := 1.5
	if q == 1 {
		threshold = 1.0
	}
	if sum < threshold {
		return 0
	}
	return sum / float64(q)
}

// Features carries the raw feature values of one (column, query column)
// pair, kept for diagnostics, baselines and ablations.
type Features struct {
	SegSim float64
	Cover  float64
	PMI2   float64
}

// nodePotential assembles θ(tc, ℓ) per Eq. 3.
//
//	θ(tc, ℓ)  = w1·SegSim + w2·Cover + w3·PMI² + w5          for ℓ ∈ [1..q]
//	θ(tc, nr) = w4 · (min(q,nt)/nt) · (1 − R(Q,t))
//	θ(tc, na) = 0
func nodePotential(f Features, rel float64, q, nt, label int, p *Params) float64 {
	switch {
	case label >= 0 && label < q:
		v := p.W1*f.SegSim + p.W2*f.Cover + p.W5
		if p.UsePMI {
			v += p.W3 * f.PMI2
		}
		return v
	case label == NR(q):
		scale := float64(q)
		if float64(nt) < scale {
			scale = float64(nt)
		}
		if nt == 0 {
			return 0
		}
		return p.W4 * (scale / float64(nt)) * (1 - rel)
	default: // na
		return 0
	}
}
