package index

import (
	"cmp"
	"math"
	"slices"
)

// This file is the reference scorer: the map-based probe over the mutable
// build-time Index, kept out of the shipped package as the oracle the
// equivalence tests and the fuzzer compare the one Searcher against. It
// shares no lookup, resolution or accumulation code with the Searcher —
// only the stored posting weight (postingWeight), the hit ordering and the
// sorted-list helpers.

// TermStats returns a token's union document frequency and total posting
// entries across all fields. Unknown tokens report ok=false.
func (ix *Index) TermStats(tok string) (df int32, postings int, ok bool) {
	d, ok := ix.df[tok]
	if !ok {
		return 0, 0, false
	}
	for f := 0; f < int(numFields); f++ {
		postings += len(ix.postings[f][tok])
	}
	return int32(d), postings, true
}

// IDF returns the smoothed inverse document frequency of a token over the
// whole corpus (union of fields): log(1 + N/(1+df)).
func (ix *Index) IDF(tok string) float64 {
	n := len(ix.ids)
	if n == 0 {
		return 1
	}
	return math.Log(1 + float64(n)/float64(1+ix.df[tok]))
}

// Search runs a union-of-keywords (OR) query over all three fields with the
// standard boosted TF-IDF score
//
//	score(d) = Σ_f boost_f Σ_{t∈q} (1+ln tf) · idf(t) / sqrt(len_f(d))
//
// and returns the top k hits by score (all hits when k <= 0). tokens must
// already be analyzed (text.Normalize).
func (ix *Index) Search(tokens []string, k int) []Hit {
	if len(tokens) == 0 || len(ix.ids) == 0 {
		return nil
	}
	uniq := dedup(tokens)
	// Accumulate in canonical term order — df ascending, token ascending on
	// ties — the same order the Searcher uses, so both scorers produce
	// bit-identical sums.
	slices.SortFunc(uniq, func(a, b string) int {
		if da, db := ix.df[a], ix.df[b]; da != db {
			return cmp.Compare(da, db)
		}
		return cmp.Compare(a, b)
	})
	scores := make(map[int32]float64)
	for _, tok := range uniq {
		idf := ix.IDF(tok)
		for f := 0; f < int(numFields); f++ {
			for _, p := range ix.postings[f][tok] {
				scores[p.Doc] += idf * float64(postingWeight(f, p.TF, ix.fieldLen[f][p.Doc]))
			}
		}
	}
	cands := make([]Hit, 0, len(scores))
	for d, s := range scores {
		cands = append(cands, Hit{ID: ix.ids[d], Doc: d, Score: s})
	}
	return selectTopHits(cands, k)
}

// DocsWithToken returns the sorted doc set containing tok in any of the
// given fields. Duplicate fields are ignored.
func (ix *Index) DocsWithToken(tok string, fields ...Field) []int32 {
	var lists [int(numFields)][]int32
	var used [int(numFields)]bool
	n := 0
	for _, f := range fields {
		if used[f] {
			continue
		}
		used[f] = true
		ps := ix.postings[f][tok]
		if len(ps) == 0 {
			continue
		}
		docs := make([]int32, len(ps))
		for i, p := range ps {
			docs[i] = p.Doc
		}
		lists[n] = docs
		n++
	}
	return mergeSortedDocLists(lists[:n])
}

// DocSet returns the sorted set of documents containing *all* tokens, each
// in at least one of the given fields.
func (ix *Index) DocSet(tokens []string, fields ...Field) []int32 {
	uniq := dedup(tokens)
	if len(uniq) == 0 {
		return nil
	}
	// Start from the rarest token for cheap intersections.
	slices.SortFunc(uniq, func(a, b string) int { return cmp.Compare(ix.df[a], ix.df[b]) })
	set := ix.DocsWithToken(uniq[0], fields...)
	for _, tok := range uniq[1:] {
		if len(set) == 0 {
			return nil
		}
		set = intersectSorted(set, ix.DocsWithToken(tok, fields...))
	}
	return set
}
