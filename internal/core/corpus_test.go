package core

import (
	"testing"

	"wwt/internal/corpusgen"
	"wwt/internal/extract"
	"wwt/internal/index"
	"wwt/internal/text"
	"wwt/internal/workload"
	"wwt/internal/wtable"
)

// corpusCase is one workload query with the candidate tables a first
// probe returns for it.
type corpusCase struct {
	cols   []string
	tables []*wtable.Table
}

// corpusCases generates the seed-2012 corpus at the given scale, indexes
// it, and returns its searcher (the corpus statistics) plus, for every
// workload query, the top-k first-probe candidates: the model-build
// inputs the engine's pipeline sees.
func corpusCases(tb testing.TB, scale float64, k int) (*index.Searcher, []corpusCase) {
	tb.Helper()
	corpus := corpusgen.Generate(corpusgen.Config{Seed: 2012, Scale: scale})
	tables := corpus.ExtractAll(extract.NewOptions())
	ix, err := index.Build(tables)
	if err != nil {
		tb.Fatal(err)
	}
	s := index.NewSearcher(ix)
	byID := make(map[string]*wtable.Table, len(tables))
	for _, t := range tables {
		byID[t.ID] = t
	}
	var out []corpusCase
	for _, q := range workload.FromCorpus(corpus) {
		var toks []string
		for _, c := range q.Columns {
			toks = append(toks, text.Normalize(c)...)
		}
		var cands []*wtable.Table
		for _, h := range s.Search(toks, k) {
			cands = append(cands, byID[h.ID])
		}
		out = append(out, corpusCase{cols: q.Columns, tables: cands})
	}
	return s, out
}

// pairSimSink keeps the benchmarked result live.
var pairSimSink []colPairSim

// BenchmarkComputePairSims measures one pair-similarity compute — the
// Jaccard grid plus the blended max-matching — cycling over every
// candidate pair of the corpus workload. cold gives each compute a fresh
// worker slot; warm reuses one slot, resetting its arena per pair as an
// edge pass does per build, and allocates nothing.
func BenchmarkComputePairSims(b *testing.B) {
	_, cases := corpusCases(b, 0.25, 40)
	p := DefaultParams()
	vc := NewViewCache()
	type pair struct{ a, b *TableView }
	var pairs []pair
	for _, c := range cases {
		for i, t1 := range c.tables {
			for _, t2 := range c.tables[i+1:] {
				pairs = append(pairs, pair{vc.view(t1, p), vc.view(t2, p)})
			}
		}
	}
	if len(pairs) == 0 {
		b.Fatal("no candidate pairs")
	}
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			pr := pairs[i%len(pairs)]
			pairSimSink = computePairSims(pr.a, pr.b, p, &workerScratch{})
		}
	})
	b.Run("warm", func(b *testing.B) {
		var slot workerScratch
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			pr := pairs[i%len(pairs)]
			slot.sims = slot.sims[:0]
			pairSimSink = computePairSims(pr.a, pr.b, p, &slot)
		}
	})
}
